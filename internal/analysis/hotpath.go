package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotPath returns the hot-path allocation analyzer.
//
// TestMapAllocationsSteadyState pins the mapping engine's steady state at
// 3 allocs/op, but a benchmark only catches a regression after it lands.
// This analyzer turns the pin into a compile-time property: starting from
// every function annotated //lama:hotpath (Mapper.Map, the dense-tree
// claim path, the netsim delta pricing), it walks the static call graph
// within the package and reports the allocation sources go/analysis can
// see syntactically:
//
//   - fmt formatting calls (fmt.Sprintf and friends);
//   - map and slice composite literals;
//   - append calls that grow a local slice with no capacity-hinted make
//     (appends to struct fields are trusted: the engine's reusable state
//     is pre-sized by construction);
//   - function literals capturing local variables (they escape);
//   - implicit interface boxing of concrete call arguments.
//
// Two shapes are understood rather than flagged: error construction
// (fmt.Errorf / errors.New inside a return of an error-returning
// function) happens only on the failing exit, and functions annotated
// //lama:coldpath <reason> — one-off builds and per-run observability
// reporting — are barriers the walk does not cross. Individual accepted
// allocations (the per-run output slices) carry //lama:alloc-ok <reason>.
func HotPath() *Analyzer {
	a := &Analyzer{
		Name: "hotpath",
		Doc:  "reports allocation sources reachable from //lama:hotpath functions",
	}
	a.Run = func(pass *Pass) error {
		w := &hotWalker{
			pass:    pass,
			decls:   map[*types.Func]*ast.FuncDecl{},
			visited: map[*types.Func]bool{},
		}
		var roots []*ast.FuncDecl
		for _, file := range pass.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				w.decls[fn] = decl
				if funcAnnotation(pass, decl, AnnotHotpath) != nil {
					roots = append(roots, decl)
				}
			}
		}
		for _, root := range roots {
			fn := pass.TypesInfo.Defs[root.Name].(*types.Func)
			w.walk(fn, funcName(fn))
		}
		return nil
	}
	return a
}

// hotWalker carries the DFS state of one package's hot-path walk.
type hotWalker struct {
	pass    *Pass
	decls   map[*types.Func]*ast.FuncDecl
	visited map[*types.Func]bool
}

// walk analyzes fn's body (once, whichever root reaches it first) and
// recurses into same-package callees.
func (w *hotWalker) walk(fn *types.Func, root string) {
	if w.visited[fn] {
		return
	}
	w.visited[fn] = true
	decl := w.decls[fn]
	if decl == nil {
		return
	}
	v := &hotVisitor{
		w:         w,
		root:      root,
		fn:        fn,
		decl:      decl,
		capHinted: capHintedLocals(w.pass.TypesInfo, decl),
		errorFn:   returnsError(w.pass.TypesInfo, fn),
	}
	v.visit(decl.Body, false)
}

// hotVisitor checks one function body.
type hotVisitor struct {
	w         *hotWalker
	root      string
	fn        *types.Func
	decl      *ast.FuncDecl
	capHinted map[types.Object]bool
	errorFn   bool
}

func (v *hotVisitor) reportf(pos ast.Node, format string, args ...any) {
	if suppressed(v.w.pass, pos.Pos(), AnnotAllocOK) {
		return
	}
	prefix := "hot path (//lama:hotpath " + v.root + ")"
	if own := funcName(v.fn); own != v.root {
		prefix += " via " + own
	}
	v.w.pass.Reportf(pos.Pos(), prefix+": "+format, args...)
}

// visit descends an AST subtree; errorExit is true inside a return
// statement of an error-returning function, where error construction is
// excused.
func (v *hotVisitor) visit(n ast.Node, errorExit bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			if v.errorFn && !errorExit {
				for _, res := range n.Results {
					v.visit(res, true)
				}
				return false
			}
		case *ast.FuncLit:
			if captured := capturedLocals(v.w.pass.TypesInfo, v.decl, n); len(captured) > 0 {
				v.reportf(n, "closure captures %s and escapes", strings.Join(captured, ", "))
			}
			// The literal's body runs on the same path; keep checking it.
			v.visit(n.Body, false)
			return false
		case *ast.CompositeLit:
			t := v.w.pass.TypesInfo.TypeOf(n)
			if isMapType(t) {
				v.reportf(n, "map composite literal allocates")
			} else if t != nil {
				if _, ok := t.Underlying().(*types.Slice); ok {
					v.reportf(n, "slice composite literal allocates")
				}
			}
		case *ast.CallExpr:
			return v.visitCall(n, errorExit)
		}
		return true
	})
}

// visitCall checks one call expression; the returned bool tells
// ast.Inspect whether to descend into the call's children.
func (v *hotVisitor) visitCall(call *ast.CallExpr, errorExit bool) bool {
	info := v.w.pass.TypesInfo
	if isBuiltin(info, call, "append") && len(call.Args) > 0 {
		v.checkAppend(call)
		return true
	}
	f := calleeFunc(info, call)
	if f == nil {
		return true // function values, builtins, conversions
	}
	if errorExit && isErrorCtor(f) {
		return false // constructing the error of a failing exit
	}
	if f.Pkg() != nil && f.Pkg().Path() == "fmt" && isFmtFormatter(f.Name()) {
		v.reportf(call, "%s.%s formats and allocates", f.Pkg().Name(), f.Name())
		return true
	}
	v.checkBoxing(call, f)
	if f.Pkg() == v.w.pass.Pkg {
		if callee := v.w.decls[f]; callee != nil {
			if funcAnnotation(v.w.pass, callee, AnnotColdpath) == nil {
				v.w.walk(f, v.root)
			}
		}
	}
	return true
}

// checkAppend flags appends that grow a fresh or un-hinted slice.
func (v *hotVisitor) checkAppend(call *ast.CallExpr) {
	base := ast.Unparen(call.Args[0])
	if _, ok := base.(*ast.SelectorExpr); ok {
		return // reusable state fields are pre-sized by construction
	}
	if id, ok := base.(*ast.Ident); ok {
		obj := v.w.pass.TypesInfo.ObjectOf(id)
		if obj == nil || v.capHinted[obj] {
			return
		}
		v.reportf(call, "append grows %s without a capacity hint", id.Name)
		return
	}
	v.reportf(call, "append to a fresh slice allocates")
}

// checkBoxing flags concrete arguments passed to interface parameters.
func (v *hotVisitor) checkBoxing(call *ast.CallExpr, f *types.Func) {
	sig, ok := f.Type().(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !isInterfaceType(pt) {
			continue
		}
		tv := v.w.pass.TypesInfo.Types[arg]
		if tv.IsNil() || isInterfaceType(tv.Type) {
			continue
		}
		v.reportf(arg, "argument boxes %s into %s",
			types.TypeString(tv.Type, types.RelativeTo(v.w.pass.Pkg)),
			types.TypeString(pt, types.RelativeTo(v.w.pass.Pkg)))
	}
}

// capHintedLocals collects the local variables assigned a three-argument
// make — slices whose growth is explicitly budgeted.
func capHintedLocals(info *types.Info, decl *ast.FuncDecl) map[types.Object]bool {
	hinted := map[types.Object]bool{}
	mark := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltin(info, call, "make") || len(call.Args) != 3 {
			return
		}
		if obj := identObject(info, lhs); obj != nil {
			hinted[obj] = true
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					mark(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					mark(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return hinted
}

// capturedLocals lists the enclosing function's local variables a
// function literal references.
func capturedLocals(info *types.Info, enclosing *ast.FuncDecl, lit *ast.FuncLit) []string {
	var names []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || seen[obj] {
			return true
		}
		// Captured = declared inside the enclosing function but outside
		// the literal itself.
		if obj.Pos() >= enclosing.Pos() && obj.Pos() < enclosing.End() &&
			(obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()) {
			seen[obj] = true
			names = append(names, obj.Name())
		}
		return true
	})
	return names
}

// returnsError reports whether fn's results include an error.
func returnsError(info *types.Info, fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if named, ok := sig.Results().At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return true
		}
	}
	return false
}

// isErrorCtor reports the error-construction functions excused inside a
// failing return.
func isErrorCtor(f *types.Func) bool {
	if f.Pkg() == nil {
		return false
	}
	return (f.Pkg().Path() == "fmt" && f.Name() == "Errorf") ||
		(f.Pkg().Path() == "errors" && f.Name() == "New")
}

// isFmtFormatter reports fmt's formatting/printing functions.
func isFmtFormatter(name string) bool {
	for _, prefix := range []string{"Sprint", "Print", "Fprint", "Append"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return name == "Errorf"
}
