package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SnapFrozen returns the published-immutability analyzer.
//
// The placement service hands every concurrent request a pointer into
// shared, supposedly-frozen state: a cluster.Snapshot, the hw.Topology
// trees it shares with sibling snapshots, and the dense pruned shapes the
// mapping engine memoizes across mappers. One stray write corrupts every
// holder at once. Topology mutators panic on a frozen topology
// (hw.Topology.Freeze), but a direct field write bypasses that run-time
// check and can leave caches silently serving pre-mutation state. The
// analyzer enforces three rules:
//
//   - Writes into a frozen type's fields or elements (cluster.Snapshot,
//     hw.Topology, hw.Object, and any in-package struct annotated
//     //lama:frozen) are legal only inside functions annotated
//     //lama:mutator — the constructor/derivation whitelist (SnapshotOf,
//     FailNode/FailPUs/AppendNode, hw's mutating methods, the dense-tree
//     builders).
//   - Calling a topology-mutating method (SetAvailable, Restrict,
//     Offline, UnmarshalJSON) on a receiver reached THROUGH a
//     cluster.Snapshot is a finding everywhere: snapshots share node and
//     topology pointers with their siblings, so the only legal mutation
//     is deriving a copy-on-write child. Mutating a scratch clone that
//     was never reached through a snapshot is fine and not reported.
//   - A function annotated //lama:cow <Type> must reference every field
//     of that struct (the field-exhaustiveness check): the capture,
//     derivation and node-signature functions carry it, so adding a
//     struct field cannot silently escape the copy or the displayed
//     placement-equivalence digest. Deliberate
//     exclusions are expressed as explicit references (`_ = n.Name`).
//
// Individual accepted mutations carry //lama:mutation-ok <reason>.
func SnapFrozen() *Analyzer {
	a := &Analyzer{
		Name: "snapfrozen",
		Doc:  "reports writes into published-immutable types outside the //lama:mutator whitelist",
	}
	a.Run = func(pass *Pass) error {
		v := &frozenVisitor{pass: pass, frozen: map[*types.TypeName]bool{}}
		for _, file := range pass.Files {
			v.collectFrozen(file)
		}
		for _, file := range pass.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				v.checkCow(decl)
				if funcAnnotation(pass, decl, AnnotMutator) != nil {
					continue // whitelisted constructor/derivation
				}
				v.checkBody(decl.Body)
			}
		}
		return nil
	}
	return a
}

// frozenBuiltin names the cross-package frozen types by (package name,
// type name). Export data carries no comments, so the service layer's
// shared types are declared here rather than via //lama:frozen.
var frozenBuiltin = map[[2]string]bool{
	{"cluster", "Snapshot"}: true,
	{"hw", "Topology"}:      true,
	{"hw", "Object"}:        true,
}

// snapshotContainers are the frozen types whose reach taints mutating
// method calls: everything found through one of these is shared with
// sibling snapshots, so even method-mediated mutation is illegal.
var snapshotContainers = map[[2]string]bool{
	{"cluster", "Snapshot"}: true,
}

// frozenMutatingMethods are the in-place mutating methods of frozen
// types, keyed like frozenBuiltin.
var frozenMutatingMethods = map[[2]string]map[string]bool{
	{"hw", "Topology"}: {
		"SetAvailable": true, "Restrict": true, "Offline": true,
		"UnmarshalJSON": true, "reindex": true,
	},
}

type frozenVisitor struct {
	pass   *Pass
	frozen map[*types.TypeName]bool // in-package //lama:frozen types
}

// collectFrozen records the file's //lama:frozen-annotated struct types.
func (v *frozenVisitor) collectFrozen(file *ast.File) {
	for _, d := range file.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok || typeAnnotation(v.pass, gd, ts, AnnotFrozen) == nil {
				continue
			}
			obj, ok := v.pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			if !ok {
				continue
			}
			if _, ok := obj.Type().Underlying().(*types.Struct); !ok {
				v.pass.Reportf(ts.Pos(), "//lama:frozen on %s, which is not a struct type", ts.Name.Name)
				continue
			}
			v.frozen[obj] = true
		}
	}
}

// namedOf unwraps pointers and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// frozenType reports whether t is (or points to) a frozen type, and its
// display name.
func (v *frozenVisitor) frozenType(t types.Type) (string, bool) {
	named := namedOf(t)
	if named == nil {
		return "", false
	}
	obj := named.Obj()
	if v.frozen[obj] {
		return obj.Name(), true
	}
	if obj.Pkg() != nil && frozenBuiltin[[2]string{obj.Pkg().Name(), obj.Name()}] {
		return obj.Pkg().Name() + "." + obj.Name(), true
	}
	return "", false
}

// containerType reports whether t is (or points to) a snapshot-container
// type.
func (v *frozenVisitor) containerType(t types.Type) (string, bool) {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return "", false
	}
	obj := named.Obj()
	if snapshotContainers[[2]string{obj.Pkg().Name(), obj.Name()}] {
		return obj.Pkg().Name() + "." + obj.Name(), true
	}
	return "", false
}

// checkBody scans one non-mutator function body for illegal mutations.
func (v *frozenVisitor) checkBody(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				v.checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			v.checkWrite(n.X)
		case *ast.CallExpr:
			v.checkMutatingCall(n)
		}
		return true
	})
}

// checkWrite reports a write whose target chain passes through a frozen
// type. Plain identifier assignments (rebinding a variable) are not
// mutations; the chain must include at least one selector, index, or
// dereference step.
func (v *frozenVisitor) checkWrite(lhs ast.Expr) {
	e := ast.Unparen(lhs)
	switch e.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return
	}
	if name, ok := v.chainFrozen(e); ok {
		if suppressed(v.pass, lhs.Pos(), AnnotMutationOK) {
			return
		}
		v.pass.Reportf(lhs.Pos(),
			"write into frozen type %s outside a //lama:mutator function", name)
	}
}

// chainFrozen walks a selector/index/call chain towards its base and
// reports the first frozen type found along it.
func (v *frozenVisitor) chainFrozen(e ast.Expr) (string, bool) {
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if name, ok := v.frozenType(v.pass.TypesInfo.TypeOf(x.X)); ok {
				return name, true
			}
			e = x.X
		case *ast.StarExpr:
			if name, ok := v.frozenType(v.pass.TypesInfo.TypeOf(x.X)); ok {
				return name, true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun // chain through method-call receivers
		case *ast.Ident:
			if name, ok := v.frozenType(v.pass.TypesInfo.TypeOf(x)); ok {
				return name, true
			}
			return "", false
		default:
			return "", false
		}
	}
}

// checkMutatingCall reports topology-mutating method calls whose receiver
// chain reaches through a snapshot container.
func (v *frozenVisitor) checkMutatingCall(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv := namedOf(v.pass.TypesInfo.TypeOf(sel.X))
	if recv == nil || recv.Obj().Pkg() == nil {
		return
	}
	key := [2]string{recv.Obj().Pkg().Name(), recv.Obj().Name()}
	if !frozenMutatingMethods[key][sel.Sel.Name] {
		return
	}
	if name, ok := v.chainContainer(sel.X); ok {
		if suppressed(v.pass, call.Pos(), AnnotMutationOK) {
			return
		}
		v.pass.Reportf(call.Pos(),
			"(%s.%s).%s mutates shared state reached through frozen %s; derive a copy-on-write child instead",
			key[0], key[1], sel.Sel.Name, name)
	}
}

// chainContainer walks a receiver chain and reports the first snapshot
// container found along it.
func (v *frozenVisitor) chainContainer(e ast.Expr) (string, bool) {
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if name, ok := v.containerType(v.pass.TypesInfo.TypeOf(x.X)); ok {
				return name, true
			}
			e = x.X
		case *ast.StarExpr, *ast.IndexExpr, *ast.SliceExpr:
			e = chainInner(e)
		case *ast.CallExpr:
			e = x.Fun
		case *ast.Ident:
			if name, ok := v.containerType(v.pass.TypesInfo.TypeOf(x)); ok {
				return name, true
			}
			return "", false
		default:
			return "", false
		}
	}
}

// chainInner returns the operand of a one-step wrapper expression.
func chainInner(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.StarExpr:
		return x.X
	case *ast.IndexExpr:
		return x.X
	case *ast.SliceExpr:
		return x.X
	}
	return e
}

// checkCow enforces field exhaustiveness for every //lama:cow <Type>
// annotation on the function.
func (v *frozenVisitor) checkCow(decl *ast.FuncDecl) {
	for _, ann := range funcAnnotations(v.pass, decl, AnnotCow) {
		if ann.Reason == "" {
			v.pass.Reportf(decl.Pos(),
				"//lama:cow annotation requires a type name (\"//lama:cow <Type>\")")
			continue
		}
		obj, _ := v.pass.Pkg.Scope().Lookup(ann.Reason).(*types.TypeName)
		var st *types.Struct
		if obj != nil {
			st, _ = obj.Type().Underlying().(*types.Struct)
		}
		if st == nil {
			v.pass.Reportf(decl.Pos(),
				"//lama:cow %s: no struct type %s in this package", ann.Reason, ann.Reason)
			continue
		}
		referenced := v.cowReferences(decl, obj, st)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" || referenced[f] {
				continue
			}
			v.pass.Reportf(decl.Pos(),
				"//lama:cow %s: %s does not reference field %s (copy it, or exclude it explicitly with `_ = x.%s`)",
				ann.Reason, decl.Name.Name, f.Name(), f.Name())
		}
	}
}

// cowReferences collects the fields of the subject struct the function
// body references, through selectors or keyed composite literals. An
// unkeyed composite literal of the type references every field.
func (v *frozenVisitor) cowReferences(decl *ast.FuncDecl, obj *types.TypeName, st *types.Struct) map[*types.Var]bool {
	fields := map[*types.Var]bool{}
	for i := 0; i < st.NumFields(); i++ {
		fields[st.Field(i)] = true
	}
	referenced := map[*types.Var]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel, ok := v.pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.FieldVal {
				if f, ok := sel.Obj().(*types.Var); ok && fields[f] {
					referenced[f] = true
				}
			}
		case *ast.CompositeLit:
			named := namedOf(v.pass.TypesInfo.TypeOf(n))
			if named == nil || named.Obj() != obj {
				return true
			}
			keyed := false
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				keyed = true
				if id, ok := kv.Key.(*ast.Ident); ok {
					if f, ok := v.pass.TypesInfo.Uses[id].(*types.Var); ok && fields[f] {
						referenced[f] = true
					}
				}
			}
			if !keyed && len(n.Elts) > 0 {
				// Unkeyed struct literals must list every field.
				for f := range fields {
					referenced[f] = true
				}
			}
		}
		return true
	})
	return referenced
}
