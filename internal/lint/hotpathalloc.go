package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"openmxsim/internal/lint/analysis"
)

// HotPathAlloc checks functions annotated //omxlint:hotpath — the PR 2
// zero-alloc paths: the engine event loop, wheel push/pop, the frame pool,
// coalescer decisions, rx dispatch — for allocation-inducing constructs.
// The dynamic AllocsPerRun guards catch a regression as "got 3 allocs,
// want 0" with no location; this analyzer names the file:line that
// allocates before the benchmark ever runs.
//
// Map index, assignment and delete are reported too: they allocate
// nothing in steady state, but each one hashes its key, which on a
// per-frame path costs more than indexing a slice by a small integer the
// model already has (a node index, an endpoint id, a block number).
//
// The check is intentionally conservative (escape analysis may prove some
// flagged constructs stack-allocatable); a construct the benchmarks show
// to be free can carry an //omxlint:allow hotpathalloc directive citing
// them. Subtrees feeding panic() are skipped — a panicking path is never
// hot.
var HotPathAlloc = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc: "flags allocation-inducing constructs (closures, fmt, make/new/append, " +
		"composite literals, string building, interface boxing) and map lookups " +
		"in functions annotated //omxlint:hotpath",
	Run: runHotPathAlloc,
}

func runHotPathAlloc(pass *analysis.Pass) error {
	known := knownNames()
	for _, f := range pass.Files {
		dirs := parseDirectives(pass.Fset, f, known)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !dirs.hotpath[fn] || fn.Body == nil {
				continue
			}
			checkHotPath(pass, fn)
		}
	}
	return nil
}

func checkHotPath(pass *analysis.Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal in hot path %s: a func literal and its "+
				"captured variables may allocate; bind the callback once at construction "+
				"(ScheduleArg pattern)", name)
			return false
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in hot path %s: spawning a goroutine allocates its stack", name)
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal in hot path %s allocates; reuse a pooled buffer", name)
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal in hot path %s allocates; reuse a long-lived map", name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "address of composite literal in hot path %s heap-allocates; "+
						"take values from a free list", name)
				}
			}
		case *ast.IndexExpr:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					pass.Reportf(n.Pos(), "map index in hot path %s hashes the key on every call; "+
						"index a slice by a small integer instead", name)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := pass.TypesInfo.TypeOf(n); t != nil && isString(t) {
					pass.Reportf(n.Pos(), "string concatenation in hot path %s allocates", name)
				}
			}
		case *ast.CallExpr:
			return checkHotPathCall(pass, name, n)
		}
		return true
	})
}

// checkHotPathCall examines one call expression; its return value tells
// ast.Inspect whether to descend into the call's children.
func checkHotPathCall(pass *analysis.Pass, name string, call *ast.CallExpr) bool {
	info := pass.TypesInfo
	// Conversions: string <-> []byte/[]rune copy their contents.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := info.TypeOf(call.Args[0])
		if from != nil && convAllocates(from, to) {
			pass.Reportf(call.Pos(), "conversion %s -> %s in hot path %s copies and allocates",
				from, to, name)
		}
		return true
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "make in hot path %s allocates; preallocate at construction", name)
			case "new":
				pass.Reportf(call.Pos(), "new in hot path %s allocates; take values from a free list", name)
			case "append":
				pass.Reportf(call.Pos(), "append in hot path %s may grow and allocate; preallocate capacity "+
					"or justify with //omxlint:allow hotpathalloc citing the AllocsPerRun guard", name)
			case "delete":
				pass.Reportf(call.Pos(), "map delete in hot path %s hashes the key on every call; "+
					"index a slice by a small integer instead", name)
			case "panic":
				// A panicking path is cold by definition: do not descend
				// into the argument (typically a fmt.Sprintf).
				return false
			}
			return true
		}
	}
	// Calls into fmt always allocate (formatting state, boxing).
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if obj := info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s call in hot path %s allocates", obj.Name(), name)
			return true
		}
	}
	// Interface boxing: passing a non-pointer concrete value where a
	// parameter has interface type forces a heap copy (pointers, channels,
	// maps, and funcs are word-sized and box for free).
	sig, ok := typeAsSignature(info.TypeOf(call.Fun))
	if !ok {
		return true
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || boxesFree(at) {
			continue
		}
		pass.Reportf(arg.Pos(), "argument of type %s boxed into interface parameter in hot path %s "+
			"may allocate; pass a pointer or a pre-boxed value", at, name)
	}
	return true
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// convAllocates reports whether a conversion between these types copies
// backing storage.
func convAllocates(from, to types.Type) bool {
	return (isString(from) && isByteOrRuneSlice(to)) || (isByteOrRuneSlice(from) && isString(to))
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// boxesFree reports whether values of this type fit an interface word
// without heap allocation.
func boxesFree(t types.Type) bool {
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return true
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	}
	return false
}

func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
