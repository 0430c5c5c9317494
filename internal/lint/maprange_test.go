package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapRange flags iteration over maps whose loop body can leak Go's
// randomized map order into deterministic output — the bug class
// behind the PR 4 Module.Refresh fix, where restoring touched rows in
// map order produced different neighbor-coupling results run to run.
//
// A map range is accepted without a suppression only when its body is
// provably order-insensitive:
//
//   - collect-then-sort: the body only appends to local slices, and
//     every such slice is sorted (sort.* / slices.Sort*) later in the
//     same function before use;
//   - map-to-map: the body only writes map entries or deletes keys —
//     insertion order does not affect a map's contents;
//   - integer accumulation: the body only accumulates into integer
//     lvalues with commutative ops (+=, ++, |=, &=, ^=). Floating-
//     point accumulation stays flagged: float addition is not
//     associative, so summing in map order is not bit-deterministic,
//     and the repo's contract is byte-identical reports.
//
// Conditionals and nested blocks are allowed as long as every leaf
// statement falls in those classes and no condition calls functions.
// Anything else — building report rows, applying flips, merging shard
// state, calling out — needs sorted keys or a reasoned suppression.
var MapRange = &Analyzer{
	Name: "maprange",
	Run:  runMapRange,
}

func runMapRange(pass *Pass) {
	pkg := pass.Pkg
	info := pkg.Info
	inspectFuncs(pkg, func(decl *ast.FuncDecl) {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			c := &rangeClassifier{info: info}
			if !c.orderInsensitive(rs.Body) {
				pass.Reportf(rs.For, "iterating a map (%s) in nondeterministic order; sort the keys first, or suppress with a reason if order cannot reach any output", types.TypeString(t, types.RelativeTo(pkg.Pkg)))
				return true
			}
			// Collect-only bodies are safe exactly when every collected
			// slice is sorted before the function uses it.
			for _, v := range c.appended {
				if !sortedAfter(info, decl.Body, rs.End(), v) {
					pass.Reportf(rs.For, "map keys collected into %s are never sorted in this function; sort before use or suppress with a reason", v.Name())
				}
			}
			return true
		})
	})
}

// rangeClassifier decides whether a loop body is structurally
// order-insensitive, collecting the local slices it appends to.
type rangeClassifier struct {
	info     *types.Info
	appended []*types.Var
}

// orderInsensitive reports whether every leaf statement of the body is
// an allowed order-insensitive form.
func (c *rangeClassifier) orderInsensitive(body *ast.BlockStmt) bool {
	for _, st := range body.List {
		if !c.stmtOK(st) {
			return false
		}
	}
	return true
}

func (c *rangeClassifier) stmtOK(st ast.Stmt) bool {
	switch s := st.(type) {
	case *ast.BlockStmt:
		return c.orderInsensitive(s)
	case *ast.IfStmt:
		if s.Init != nil && !c.stmtOK(s.Init) {
			return false
		}
		if hasCall(c.info, s.Cond) {
			return false
		}
		if !c.orderInsensitive(s.Body) {
			return false
		}
		return s.Else == nil || c.stmtOK(s.Else)
	case *ast.BranchStmt:
		// continue/break never leak order on their own.
		return s.Tok == token.CONTINUE || s.Tok == token.BREAK
	case *ast.IncDecStmt:
		return c.intLvalue(s.X) || c.mapIndexLvalue(s.X)
	case *ast.AssignStmt:
		return c.assignOK(s)
	case *ast.ExprStmt:
		// Only delete(m, k) is allowed as a bare call.
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := c.info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
				return true
			}
		}
		return false
	case *ast.DeclStmt:
		// Local declarations are inert; their initializers must be
		// call-free like any other RHS.
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					if hasCall(c.info, v) {
						return false
					}
				}
			}
		}
		return true
	default:
		return false
	}
}

// assignOK accepts the three order-insensitive assignment shapes:
// append-to-local-slice (recorded for the sort check), writes into map
// entries, and commutative integer accumulation.
func (c *rangeClassifier) assignOK(s *ast.AssignStmt) bool {
	// x = append(x, ...) with matching, local, addressable target.
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 && (s.Tok == token.ASSIGN || s.Tok == token.DEFINE) {
		if v := appendTarget(c.info, s.Lhs[0], s.Rhs[0]); v != nil {
			c.appended = append(c.appended, v)
			return true
		}
	}
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		for _, l := range s.Lhs {
			if id, ok := l.(*ast.Ident); ok && id.Name == "_" {
				continue
			}
			if !c.mapIndexLvalue(l) {
				return false
			}
		}
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		if !c.intLvalue(s.Lhs[0]) && !c.mapIndexLvalue(s.Lhs[0]) {
			return false
		}
	default:
		return false
	}
	for _, r := range s.Rhs {
		if hasCall(c.info, r) {
			return false
		}
	}
	return true
}

// mapIndexLvalue reports whether e is m[k] for map-typed m — writing
// entries of another map is insertion-order independent. Integer
// accumulation into a map entry (counts[k] += v) also routes here.
func (c *rangeClassifier) mapIndexLvalue(e ast.Expr) bool {
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return false
	}
	t := c.info.TypeOf(ix.X)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// intLvalue reports whether e has integer type; commutative integer
// accumulation is order-insensitive where float accumulation is not.
func (c *rangeClassifier) intLvalue(e ast.Expr) bool {
	t := c.info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// appendTarget matches `v = append(v, ...)` and returns v's object.
func appendTarget(info *types.Info, lhs, rhs ast.Expr) *types.Var {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok {
		return nil
	}
	if b, ok := info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	if len(call.Args) < 1 {
		return nil
	}
	arg0, ok := call.Args[0].(*ast.Ident)
	if !ok || arg0.Name != id.Name {
		return nil
	}
	var obj types.Object
	if def := info.Defs[id]; def != nil {
		obj = def
	} else {
		obj = info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return nil
	}
	// Appending the values themselves (not sortable keys) is still
	// fine — the sort requirement applies to whatever was collected.
	return v
}

// hasCall reports whether the expression contains any call that is not
// a type conversion — calls can observe iteration order (logging,
// appending to shared state) so RHS expressions must be call-free.
func hasCall(info *types.Info, e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion, not a call
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "len", "cap", "min", "max", "abs":
					return true
				}
			}
		}
		found = true
		return false
	})
	return found
}

// sortedAfter reports whether v is passed to a recognized sorting
// function somewhere in body after pos — the second half of the
// collect-then-sort idiom.
func sortedAfter(info *types.Info, body *ast.BlockStmt, pos token.Pos, v *types.Var) bool {
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sorted || n == nil || n.End() < pos {
			return !sorted
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch pkgNameOf(info, sel) {
		case "sort":
			switch sel.Sel.Name {
			case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
			default:
				return true
			}
		case "slices":
			switch sel.Sel.Name {
			case "Sort", "SortFunc", "SortStableFunc":
			default:
				return true
			}
		default:
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok && info.Uses[id] == v {
			sorted = true
		}
		return true
	})
	return sorted
}
