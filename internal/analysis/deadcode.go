package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// DeadCode returns the unreferenced-exported-identifier analyzer.
//
// An exported package-level identifier or method of a lama/internal/...
// package is dead when no live non-test code of the module reaches it.
// Every other declaration is live, and an exported one becomes live once
// live code references it. Test files are not loaded, so a caller in a
// test keeps nothing alive. A method whose name an interface of the
// module (or ifaceNames) declares is live, and so is an identifier whose
// line, or the line above, carries //lama:api <reason>: API of another
// module, or a test oracle.
//
// The loader reads dependencies from export data, so one identifier is a
// different types.Object in every package that sees it: references are
// keyed by qualified name (pkgpath.Name, types.Func.FullName). Like
// obsvocab's dead-entry check, Run collects and Finish reports.
func DeadCode() *Analyzer {
	a := &Analyzer{
		Name: "deadcode",
		Doc:  "reports exported identifiers of internal packages that no non-test code of the module reaches",
	}
	decls := map[string]*deadDecl{}
	live := map[string]bool{}
	ifaces := map[string]bool{}
	for _, n := range ifaceNames {
		ifaces[n] = true
	}
	a.Run = func(pass *Pass) error {
		info := pass.TypesInfo
		internal := strings.HasPrefix(pass.Pkg.Path(), "lama/internal/")
		// track registers an exported declaration of an internal package;
		// nil means the declaration is not tracked and its code is live.
		track := func(id *ast.Ident) *deadDecl {
			key := deadKey(info.Defs[id])
			if !internal || !id.IsExported() || key == "" {
				return nil
			}
			if suppressed(pass, id.Pos(), AnnotAPI) {
				live[key] = true
			}
			d := &deadDecl{pos: pass.Fset.Position(id.Pos())}
			if f, ok := info.Defs[id].(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
				d.method = id.Name
			}
			decls[key] = d
			return d
		}
		// walk records every reference under n as an edge from the
		// declarations in from; the code of an untracked one (nil) is live.
		walk := func(n ast.Node, from ...*deadDecl) {
			if slices.Contains(from, nil) {
				from = nil
			}
			ast.Inspect(n, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if key := deadKey(info.Uses[id]); key != "" {
					if len(from) == 0 {
						live[key] = true
					}
					for _, d := range from {
						d.refs = append(d.refs, key)
					}
				}
				return true
			})
		}
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					walk(decl, track(decl.Name))
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							walk(s, track(s.Name))
						case *ast.ValueSpec:
							var from []*deadDecl
							for _, name := range s.Names {
								from = append(from, track(name))
							}
							walk(s, from...)
						}
					}
				}
			}
		}
		// An interface the package declares or names lends its method
		// names to every type's methods.
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				for i := range it.NumMethods() {
					ifaces[it.Method(i).Name()] = true
				}
			}
		}
		return nil
	}
	a.Finish = func(report func(Diagnostic)) {
		for key, d := range decls {
			if d.method != "" && ifaces[d.method] {
				live[key] = true
			}
		}
		queue := make([]string, 0, len(live))
		for key := range live {
			queue = append(queue, key)
		}
		for len(queue) > 0 {
			d := decls[queue[len(queue)-1]]
			queue = queue[:len(queue)-1]
			if d == nil {
				continue
			}
			for _, ref := range d.refs {
				if !live[ref] {
					live[ref] = true
					queue = append(queue, ref)
				}
			}
		}
		for key, d := range decls {
			if !live[key] {
				report(Diagnostic{Analyzer: a.Name, Pos: d.pos,
					Message: key + " is exported but no non-test code of the module reaches it; delete it or mark it " +
						annotPrefix + AnnotAPI + " <who uses it>"})
			}
		}
	}
	return a
}

// deadDecl is one exported declaration deadcode tracks.
type deadDecl struct {
	pos    token.Position
	method string   // the method name; "" for a package-level identifier
	refs   []string // keys of what the declaration references
}

// ifaceNames are method names standard-library interfaces reach through
// reflection or dynamic dispatch the module's own types do not show.
var ifaceNames = []string{"String", "Error", "MarshalJSON", "UnmarshalJSON", "Len", "Less", "Swap", "Close", "Write"}

// deadKey is the qualified name deadcode keys obj by: FullName for a
// method, pkgpath.Name for a package-level identifier, "" for anything
// else (locals, fields, builtins).
func deadKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		f = f.Origin()
		if f.Type().(*types.Signature).Recv() != nil {
			return f.FullName()
		}
		obj = f
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
