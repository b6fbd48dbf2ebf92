package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFirst returns the context-parameter-position analyzer.
//
// The request-scoped refactor threaded context.Context through the
// mapping, sweeping, placement, and refinement APIs. Go's
// convention — and the shape every call site in this repository now
// relies on — is that the context is the FIRST parameter.
// A context buried mid-signature is invisible at call sites, breaks the
// mechanical `ctx, ` threading pattern, and suggests the function grew
// its context after the fact instead of being designed for cancellation.
// This analyzer pins the convention for every function declaration,
// method, and function literal in the module.
func CtxFirst() *Analyzer {
	a := &Analyzer{
		Name: "ctxfirst",
		Doc:  "requires context.Context parameters to be the first parameter",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch fn := n.(type) {
				case *ast.FuncDecl:
					checkCtxFirst(pass, fn.Type, fn.Name.Name)
				case *ast.FuncLit:
					checkCtxFirst(pass, fn.Type, "function literal")
				case *ast.InterfaceType:
					for _, m := range fn.Methods.List {
						if ft, ok := m.Type.(*ast.FuncType); ok && len(m.Names) > 0 {
							checkCtxFirst(pass, ft, m.Names[0].Name)
						}
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

// checkCtxFirst reports a context.Context parameter at any position other
// than the first. The receiver does not count as a position: a method
// (m *Mapper) MapContext(ctx, np) is compliant.
func checkCtxFirst(pass *Pass, ft *ast.FuncType, name string) {
	if ft.Params == nil {
		return
	}
	pos := 0
	for _, field := range ft.Params.List {
		// A field may declare several names (a, b int); each occupies a
		// parameter position. An anonymous field occupies one.
		width := len(field.Names)
		if width == 0 {
			width = 1
		}
		if isContextType(pass.TypesInfo.TypeOf(field.Type)) && pos != 0 {
			pass.Reportf(field.Type.Pos(),
				"%s: context.Context is parameter %d, not first; a mid-signature context is invisible at call sites",
				name, pos+1)
		}
		pos += width
	}
}

// isContextType reports whether t is exactly context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" &&
		obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
