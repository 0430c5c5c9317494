package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one type-checked unit of analysis.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	// Src holds the raw bytes per file name; directive handling uses
	// it to decide whether a comment stands alone on its line.
	Src map[string][]byte
	// Pkg and Info are the type-checker's output. Info is always
	// non-nil; Errors collects type errors (analysis continues on a
	// best-effort basis, but the tests fail on them).
	Pkg    *types.Package
	Info   *types.Info
	Errors []error
}

// A Program is one loaded-and-checked set of packages sharing a
// FileSet and importer, so type identities are comparable across
// packages.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Export     string
	Error      *struct{ Err string }
}

// Load resolves the patterns (import paths, ./... wildcards, or
// directories — absolute or relative to dir) through the go tool and
// type-checks every matched package from source. Dependencies —
// standard library and module-internal alike — are imported from
// compiler export data produced by `go list -export`, so a load costs
// one toolchain invocation plus parsing only the packages under
// analysis. Test files are excluded: the contracts the suite encodes
// bind the shipped code, and test-only wall-clock or map-order use is
// legitimate.
func Load(dir string, patterns []string) (*Program, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("lint: no packages to load")
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var targets []*listedPackage
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if lp.Standard || lp.DepOnly {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		targets = append(targets, lp)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("lint: patterns %v matched no packages", patterns)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	})
	prog := &Program{Fset: fset}
	for _, lp := range targets {
		pkg, err := check(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	return prog, nil
}

// goList shells out to `go list -deps -export -json`, the one
// toolchain call behind a load: it enumerates the matched packages,
// their file lists after build-constraint filtering, and compiler
// export data for every transitive dependency.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Standard,DepOnly,Export,Error",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var out []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		out = append(out, lp)
	}
	return out, nil
}

// check parses and type-checks one listed package.
func check(fset *token.FileSet, imp types.Importer, lp *listedPackage) (*Package, error) {
	pkg := &Package{
		ImportPath: lp.ImportPath,
		Dir:        lp.Dir,
		Src:        make(map[string][]byte, len(lp.GoFiles)),
	}
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		pkg.Src[path] = src
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.Errors = append(pkg.Errors, err) },
	}
	// Check returns the package even when it collected errors; the
	// suite analyzes what it can and the tests fail on the errors.
	pkg.Pkg, _ = conf.Check(lp.ImportPath, fset, pkg.Files, pkg.Info)
	return pkg, nil
}

// inspectFuncs walks every file of the package, invoking fn for each
// top-level function declaration with a body.
func inspectFuncs(pkg *Package, fn func(decl *ast.FuncDecl)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// pkgNameOf resolves the imported package a selector's qualifier
// refers to, e.g. `time` in `time.Now`. Returns "" when the qualifier
// is not a package name.
func pkgNameOf(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}
