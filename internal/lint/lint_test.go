// Package lint is the repository's determinism and concurrency
// analysis suite: a stdlib-only (go/parser + go/ast + go/types) set of
// analyzers encoding contracts that `go vet` cannot know about. The
// repo's core invariant — every experiment report is byte-identical at
// any worker count, any cache state, any replay path — is enforced
// dynamically by the golden suite, but golden tests only catch hazards
// on inputs they run; the analyzers here catch whole bug classes
// (unsorted map iteration feeding reports, wall-clock reads in
// deterministic compute, unseeded randomness, mixed atomic/plain field
// access) on any tree.
//
// The suite is a test, not a tool: every file of the package is a
// _test.go file, so no binary links it, and `go test ./...` runs it.
// TestRepoInvariants loads every package of the module and fails on
// any unsuppressed finding; the fixture tests pin each analyzer's
// findings on testdata packages.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis in
// miniature — Analyzer, Pass, Diagnostic, a testdata harness driven by
// `// want "regexp"` comments — but depends only on the standard
// library, because the module carries zero external dependencies and
// must stay that way.
//
// Findings are suppressed line by line with
//
//	//lint:ignore rowpressvet/<analyzer> <reason>
//
// either trailing the offending line or alone on the line above it;
// rowpressvet/ is the suite's directive namespace, so other tools'
// lint:ignore comments pass through. The reason is mandatory: a
// reason-less directive is itself a finding, as is a stale directive
// that no longer matches any diagnostic.
package lint

import (
	"fmt"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// An Analyzer is one named check, run once per loaded package.
type Analyzer struct {
	// Name is the analyzer's identifier as it appears in diagnostics
	// and suppression directives (rowpressvet/<Name>).
	Name string
	// Run performs the analysis, reporting findings through the pass.
	Run func(*Pass)
}

// A Pass carries one analyzer invocation over one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned and attributed to its
// analyzer.
type Diagnostic struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

// String renders the diagnostic in the canonical file:line: analyzer:
// message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.File, d.Line, d.Analyzer, d.Message)
}

// Analyzers returns the full suite, sorted by name.
func Analyzers() []*Analyzer {
	out := []*Analyzer{
		AtomicMix,
		MapRange,
		RNGSource,
		WallClock,
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Run executes the analyzers over the loaded program, applies
// suppression directives, and returns the findings that stand, sorted
// by position then analyzer. Directive misuse (missing reason, unknown
// analyzer, stale suppression) surfaces as diagnostics from the
// reserved "ignore" analyzer, which cannot itself be suppressed.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range prog.Pkgs {
			a.Run(&Pass{Analyzer: a, Fset: prog.Fset, Pkg: pkg, diags: &diags})
		}
	}
	diags = applySuppressions(prog, analyzers, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// TestRepoInvariants runs the whole suite over every package of the
// module: any type error or unsuppressed finding fails tier-1.
func TestRepoInvariants(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// go test caches a passing result keyed on the files and
	// directories this process opens; the go list child that resolves
	// ./... is invisible to it. Opening every source directory puts
	// their listings in the key, so a new file or package reruns the
	// check instead of replaying a stale pass.
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range prog.Pkgs {
		for _, terr := range pkg.Errors {
			t.Errorf("%s: type error: %v", pkg.ImportPath, terr)
		}
	}
	for _, d := range Run(prog, Analyzers()) {
		if rel, err := filepath.Rel(root, d.File); err == nil {
			d.File = rel
		}
		t.Error(d)
	}
	t.Logf("%d packages analyzed", len(prog.Pkgs))
}
