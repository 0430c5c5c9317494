package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AtomicMix flags struct fields that are accessed through sync/atomic
// functions at one site and by plain load/store at another. A field
// either belongs to the atomic domain or it does not: mixing the two
// is a data race the race detector only catches when both sites
// actually interleave under -race, while the analyzer catches the
// pattern on any tree. The hand-rolled counters in obs and the
// engine's LatencyStats accumulators are exactly the kind of code this
// guards; they use typed atomics (atomic.Uint64 etc.), which make
// plain access impossible by construction and are therefore ignored
// here — the check targets the legacy atomic.AddUint64(&s.f, ...)
// style where nothing stops a bare s.f from creeping in.
//
// Plain accesses inside functions named New* are exempt: initializing
// a field before the value escapes to other goroutines is the standard
// constructor pattern and not a race.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Run:  runAtomicMix,
}

// fieldAccess records where and how a field was touched.
type fieldAccess struct {
	pos      token.Pos
	atomicOp string // sync/atomic function name for atomic accesses
}

func runAtomicMix(pass *Pass) {
	pkg := pass.Pkg
	info := pkg.Info

	atomicSites := map[*types.Var][]fieldAccess{}
	plainSites := map[*types.Var][]fieldAccess{}
	// Selector expressions consumed as &f arguments of sync/atomic
	// calls, so the plain-access walk can skip them.
	atomicArgs := map[*ast.SelectorExpr]bool{}

	inspectFuncs(pkg, func(decl *ast.FuncDecl) {
		constructor := strings.HasPrefix(decl.Name.Name, "New") || strings.HasPrefix(decl.Name.Name, "new")
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fun, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || pkgNameOf(info, fun) != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := un.X.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				f := fieldOf(info, sel)
				if f == nil {
					continue
				}
				atomicArgs[sel] = true
				atomicSites[f] = append(atomicSites[f], fieldAccess{pos: sel.Pos(), atomicOp: fun.Sel.Name})
			}
			return true
		})
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || atomicArgs[sel] || constructor {
				return true
			}
			f := fieldOf(info, sel)
			if f == nil {
				return true
			}
			plainSites[f] = append(plainSites[f], fieldAccess{pos: sel.Pos()})
			return true
		})
	})

	fields := make([]*types.Var, 0, len(atomicSites))
	for f := range atomicSites {
		if len(plainSites[f]) > 0 {
			fields = append(fields, f)
		}
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].Pos() < fields[j].Pos() })
	for _, f := range fields {
		op := atomicSites[f][0].atomicOp
		plains := plainSites[f]
		sort.Slice(plains, func(i, j int) bool { return plains[i].pos < plains[j].pos })
		for _, p := range plains {
			pass.Reportf(p.pos, "field %s is accessed with atomic.%s elsewhere but read/written directly here; every access to an atomic field must go through sync/atomic (or switch the field to atomic.%s)", fieldName(f), op, typedAtomicFor(f))
		}
	}
}

// fieldOf resolves a selector to the struct field it addresses, or nil
// when the selector is not a field access.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj().(*types.Var)
}

// fieldName renders Type.field for diagnostics.
func fieldName(f *types.Var) string {
	name := f.Name()
	if named, ok := fieldOwner(f); ok {
		return named + "." + name
	}
	return name
}

// fieldOwner finds the struct type name declaring f, best-effort.
func fieldOwner(f *types.Var) (string, bool) {
	pkg := f.Pkg()
	if pkg == nil {
		return "", false
	}
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == f {
				return tn.Name(), true
			}
		}
	}
	return "", false
}

// typedAtomicFor suggests the sync/atomic wrapper type matching the
// field's width.
func typedAtomicFor(f *types.Var) string {
	b, ok := f.Type().Underlying().(*types.Basic)
	if !ok {
		return "Value"
	}
	switch b.Kind() {
	case types.Uint64, types.Uintptr:
		return "Uint64"
	case types.Int64:
		return "Int64"
	case types.Uint32:
		return "Uint32"
	case types.Int32:
		return "Int32"
	case types.Bool:
		return "Bool"
	default:
		return "Value"
	}
}
