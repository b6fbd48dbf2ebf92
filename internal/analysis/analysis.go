// Package analysis is lamavet's static-analysis suite: a small,
// dependency-free re-implementation of the go/analysis model (Analyzer,
// Pass, Diagnostic) on top of the standard library's go/parser and
// go/types, plus the four repository-specific analyzers that turn this
// repo's runtime-tested invariants into compile-time guarantees:
//
//   - mapiter: no map-iteration order may reach a return value, a slice
//     append, or an event emission inside the deterministic packages —
//     the paper's 9!-permutation layout sweeps and reproducible rankfiles
//     only hold if mapping is bit-deterministic, a property the treematch
//     partitioner once violated through a map-range tie-break.
//   - nodeterm: the deterministic packages must not read wall clocks,
//     the shared math/rand source, or the environment, except through
//     injected options (an explicit seed, an Observer clock) or under an
//     annotated exemption.
//   - obsvocab: every (source, name) event pair handed to Observer.Emit,
//     and every literal phase-span label, must come from the canonical
//     vocabulary table in internal/obs/vocab.go; the table must not carry
//     dead entries.
//   - hotpath: functions annotated //lama:hotpath, and everything they
//     statically call within their package, must be free of allocation
//     sources (fmt formatting, map/slice composite literals, un-hinted
//     append growth, capturing closures, implicit interface boxing) —
//     the static form of TestMapAllocationsSteadyState's 3-allocs/op pin.
//   - ctxfirst: context.Context parameters must come first (lamavet/2).
//
// The lamavet/3 analyzers turn the concurrent placement service's
// shared-state discipline into compile-time checks:
//
//   - snapfrozen: published-immutability for cluster.Snapshot, hw.Topology
//     trees, and the dense pruned shapes — writes to frozen-type fields
//     are legal only inside the //lama:mutator constructor/derivation
//     whitelist of the defining package, mutations reached through a
//     Snapshot (s.Cluster().Nodes[i] = ..., snapshot-held topology
//     mutator calls) are findings anywhere, and //lama:cow functions must
//     reference every field of their subject struct so a new field cannot
//     silently escape a copy or the placement-equivalence fingerprint.
//   - lockcheck: mutex discipline for engine/obs/rm/orte — fields
//     annotated //lama:guards <mu> must be accessed with the mutex held
//     (writes need the exclusive lock), locks must not be held across
//     blocking operations (channel send/receive outside select-default,
//     Observer.Emit, HTTP response writes), re-locking a held mutex and
//     copying a mutex-bearing struct by value are reported.
//   - golifecycle: every `go` statement in engine/obs/orte/parallel needs
//     a provable join path — WaitGroup Add/Done pairing, termination by
//     ranging over a closable channel, or a ctx.Done() cancellation
//     select; fire-and-forget goroutines are findings.
//   - atomicmix: a field accessed through sync/atomic somewhere must be
//     accessed that way everywhere — mixed atomic and plain loads/stores
//     on one field are reported at the plain sites.
//
// lamavet/4 adds deadcode: on whole-module runs, every exported
// identifier of a lama/internal/... package must be reached by non-test
// code of the module or carry a reasoned //lama:api marker.
//
// Annotation syntax (line comments, attached to the annotated line or the
// line directly above; function-level kinds also attach to the doc
// comment, type-level kinds to the type declaration's doc comment):
//
//	//lama:hotpath                 marks a hot-path root for `hotpath`
//	//lama:coldpath <reason>       stops the hot-path walk at a callee
//	//lama:frozen                  marks a struct type published-immutable
//	//lama:mutator                 admits a function to its package's frozen-type write whitelist
//	//lama:cow <Type>              requires the function to reference every field of Type
//	//lama:guards <mutex>          names the sibling mutex guarding a struct field
//	//lama:locked <reason>         documents a function called with the lock already held
//	//lama:alloc-ok <reason>       accepts one allocation site on the hot path
//	//lama:nondet-ok <reason>      accepts one mapiter/nodeterm finding
//	//lama:mutation-ok <reason>    accepts one snapfrozen finding
//	//lama:lock-ok <reason>        accepts one lockcheck finding
//	//lama:join-ok <reason>        accepts one golifecycle finding
//	//lama:atomic-ok <reason>      accepts one atomicmix finding
//	//lama:api <reason>            keeps an exported identifier deadcode finds unreached
//
// Suppressions require a reason; a bare annotation is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Version identifies the analyzer suite; it is recorded by lamabench's
// lint provenance field and printed by `lamavet -V=full`. Bump it when an
// analyzer's findings change.
const Version = "lamavet/4"

// Analyzer is one named static check.
type Analyzer struct {
	// Name is the check's identifier, used in diagnostics and flags.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Run analyzes one package.
	Run func(*Pass) error
	// Finish, if non-nil, is invoked once after every package has been
	// analyzed — whole-program checks (obsvocab's dead-entry detection)
	// report from here. Drivers analyzing only a slice of the repository
	// (fixtures, single packages) skip it.
	Finish func(report func(Diagnostic))
}

// Pass carries one package's worth of inputs to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Annot     *Annotations
	// Report delivers one diagnostic.
	Report func(Diagnostic)
	// ReportSuppression, if non-nil, records every reasoned suppression an
	// analyzer honored, so drivers can surface accepted exemptions (the
	// lamavet -json "suppressions" array) without re-scanning the tree.
	ReportSuppression func(Suppression)
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	if d.Pos.Filename == "" {
		return fmt.Sprintf("%s: %s", d.Analyzer, d.Message)
	}
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Suppression is one reasoned //lama:*-ok annotation an analyzer honored:
// a finding that exists in the tree but is accepted, with its recorded
// justification. lamavet -json reports these so CI can audit the exemption
// set without grepping for annotations.
type Suppression struct {
	Analyzer string
	Kind     string
	Reason   string
	Pos      token.Position
}

// Suite returns a fresh instance of every analyzer, in reporting order.
// Instances carry per-run state (obsvocab accumulates the emission set),
// so drivers must not share a suite between runs.
func Suite() []*Analyzer {
	return []*Analyzer{
		MapIter(), NoDeterm(), ObsVocab(), HotPath(), CtxFirst(),
		SnapFrozen(), LockCheck(), GoLifecycle(), AtomicMix(), DeadCode(),
	}
}

// RunPackages loads the packages matching patterns (resolved relative to
// dir, "" meaning the current directory) and applies every analyzer of the
// suite to each, returning all diagnostics sorted by position together
// with every reasoned suppression the analyzers honored. Finish hooks run
// when finish is true — pass true only when the patterns cover the whole
// module, since whole-program checks are meaningless on a slice of it.
func RunPackages(dir string, patterns []string, suite []*Analyzer, finish bool) ([]Diagnostic, []Suppression, error) {
	loader := NewLoader(dir)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, nil, err
	}
	var diags []Diagnostic
	var sups []Suppression
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range pkgs {
		for _, a := range suite {
			pass := pkg.Pass(a, report)
			pass.ReportSuppression = func(s Suppression) { sups = append(sups, s) }
			if err := a.Run(pass); err != nil {
				return diags, sups, fmt.Errorf("%s: %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	if finish {
		for _, a := range suite {
			if a.Finish != nil {
				a.Finish(report)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	sort.Slice(sups, func(i, j int) bool {
		a, b := sups[i], sups[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return diags, sups, nil
}

// DeterministicPkgNames are the package names whose outputs must be
// bit-reproducible: the mapping engine and every placement policy the
// golden-equivalence and repeated-run tests pin. mapiter and nodeterm
// enforce only inside these.
var DeterministicPkgNames = map[string]bool{
	"core":      true,
	"place":     true,
	"treematch": true,
	"baseline":  true,
	"torus":     true,
	"rankfile":  true,
	"permute":   true,
	"hw":        true,
	"netorder":  true,
	"netsim":    true,
	"commpat":   true,
	"engine":    true,
}

// deterministic reports whether the pass's package is part of the
// deterministic set (matched by package name so analysistest fixtures can
// opt in by naming themselves after a deterministic package).
func deterministic(pkg *types.Package) bool {
	return pkg != nil && DeterministicPkgNames[pkg.Name()]
}
