// Package place unifies every placement strategy of the repository behind
// one interface, one registry, and one request type. The paper frames the
// LAMA as a point in a space of mapping strategies (§II, §V compares it to
// by-slot/by-node round-robin, MPICH2 pack/scatter, BlueGene XYZT orders,
// and rankfiles); this package makes that space first-class so strategies
// can be compared, swept, and served interchangeably.
//
// A Policy consumes a Request — the superset of inputs any strategy needs
// (cluster, process count, LAMA layout, traffic matrix, torus shape,
// rankfile text, seed, and the mapping options including the Observer) —
// and produces a core.Map. Strategies self-register in their package's
// init (importing lama/internal/place/all links every built-in one), so
// callers resolve them by name:
//
//	m, err := place.Place("treematch", &place.Request{
//		Cluster: c, NP: 64, Traffic: tm,
//	})
//
// Run wraps every non-self-instrumenting policy with the uniform
// observation contract (a "place" phase span, a "map"/"done" event, and
// the placement latency metrics), so traces and run reports carry the
// mapping phase identically whichever strategy produced the map — the
// LAMA's core.Mapper instruments itself and is marked SelfObserving.
package place

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/obs"
)

// Request bundles everything a placement policy may consume. Each policy
// reads only the fields it documents (see Names' table in the README);
// unused fields are ignored, so one Request can be handed to every
// registered policy in a sweep.
type Request struct {
	// Cluster is the allocation to place onto (required).
	Cluster *cluster.Cluster
	// NP is the number of processes to place (required, > 0).
	NP int
	// Layout is the LAMA process layout ("lama" policy). The zero layout
	// falls back to "csbnh", the Level-1 default of the paper's §V.
	Layout core.Layout
	// Traffic is the application communication matrix (traffic-aware
	// policies such as "treematch", and the netorder post-pass stages).
	Traffic *commpat.Matrix
	// TorusDims is the X, Y, Z shape of the torus ("torus" policy). All
	// zero means "derive a near-cubic shape from the node count".
	TorusDims [3]int
	// TorusOrder is the xyzt iteration-order permutation ("torus" policy);
	// empty means "xyzt".
	TorusOrder string
	// RankfileText is the Level-4 irregular placement file ("rankfile"
	// policy).
	RankfileText string
	// Seed drives randomized policies ("random").
	Seed int64
	// BlockSize is the SLURM plane distribution block ("plane" policy);
	// zero means 1.
	BlockSize int
	// PackLevel is the topology level for "pack" and "scatter"; the zero
	// value is the machine (whole-node) level.
	PackLevel hw.Level
	// Opts are the mapping options: oversubscription, PEs per process,
	// per-resource caps, and the Observer every pipeline stage reports to.
	Opts core.Options
	// Mapper is caller-owned LAMA state to reuse across runs ("lama"
	// policy): the policy re-points it at Cluster, Layout and Opts, so a
	// Mapper kept across requests keeps its dense tree and scratch
	// arrays. Nil means a fresh Mapper per run. The output is the same
	// either way. Like any Mapper it must not run two requests at once.
	Mapper *core.Mapper
}

// Validate checks the fields every policy requires.
func (r *Request) Validate() error {
	if r == nil {
		return fmt.Errorf("place: nil request")
	}
	if r.Cluster == nil || r.Cluster.NumNodes() == 0 {
		return fmt.Errorf("place: empty cluster")
	}
	if r.NP <= 0 {
		return fmt.Errorf("place: non-positive process count %d", r.NP)
	}
	return nil
}

// Policy is one placement strategy: a named function from a Request to a
// mapping plan. Place must not retain or mutate the request.
type Policy interface {
	// Name returns the registry name (e.g. "lama", "by-slot", "treematch").
	Name() string
	// Place maps req.NP ranks onto req.Cluster. The context cancels the
	// run at phase boundaries (policies must not check it inside their
	// per-coordinate hot loops); ctx is always non-nil under Run.
	Place(ctx context.Context, req *Request) (*core.Map, error)
}

// SelfObserving marks policies whose Place already records the mapping
// phase span, the "map"/"done" event, and the placement latency metrics
// (the LAMA's core.Mapper does). Run leaves them alone; every other policy
// is wrapped so all paths emit the same observation vocabulary.
type SelfObserving interface {
	SelfObserving()
}

// TrafficAware marks policies whose Place reads Request.Traffic. A caller
// that derives traffic from a pattern name (lamad) builds it only for
// these; every other policy ignores the field.
type TrafficAware interface {
	TrafficAware()
}

// PEsAware marks policies that claim Opts.PEsPerProc PUs for each rank.
// Every other policy decides each rank's PUs itself (one PU for the
// baselines, torus and treematch; the slot list for a rankfile), so Run
// refuses it a request for more than one PU per rank with ErrPEsPerProc
// rather than silently placing one.
type PEsAware interface {
	PEsAware()
}

// ErrPEsPerProc is returned by Run for a request whose Opts.PEsPerProc is
// above 1 when the policy is not PEsAware.
var ErrPEsPerProc = errors.New("place: policy does not claim PEsPerProc PUs per rank")

// PrefixClosed marks policies whose map of np ranks is the first np
// ranks of their map of any N >= np on the same cluster and request:
// np only tells them when to stop. A caller may then serve np ranks from
// a longer stored run (lamad's placement cache does). A policy whose
// output depends on np in any other way, such as treematch through its
// traffic, must not carry it.
type PrefixClosed interface {
	PrefixClosed()
}

var (
	regMu    sync.RWMutex
	regOrder []string
	registry = map[string]Policy{}
)

// Register adds a policy to the registry. Registering a name twice
// replaces the previous policy but keeps its original registration-order
// position, so Names stays stable across re-registration.
func Register(p Policy) {
	if p == nil || p.Name() == "" {
		panic("place: Register with nil or unnamed policy")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, exists := registry[p.Name()]; !exists {
		regOrder = append(regOrder, p.Name())
	}
	registry[p.Name()] = p
}

// Lookup resolves a registered policy by name.
func Lookup(name string) (Policy, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := registry[name]
	return p, ok
}

// Names returns the registered policy names in registration order (stable
// within one process: package init order, then explicit Register calls).
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), regOrder...)
}

// unknownPolicyError names the missing policy and lists what is registered
// (sorted, so the message is deterministic).
func unknownPolicyError(name string) error {
	known := Names()
	sort.Strings(known)
	return fmt.Errorf("place: unknown policy %q (registered: %s)",
		name, strings.Join(known, ", "))
}

// Place resolves a policy by name and runs it with the uniform
// instrumentation contract.
func Place(ctx context.Context, name string, req *Request) (*core.Map, error) {
	p, ok := Lookup(name)
	if !ok {
		return nil, unknownPolicyError(name)
	}
	return Run(ctx, p, req)
}

// Run executes one policy under the uniform observation contract: the
// request is validated, a PEsPerProc the policy cannot claim is refused,
// and unless the policy is SelfObserving the call is wrapped in a "place"
// phase span, a "map"/"done" (or "map"/"stall") event, and the placement
// latency metrics — exactly the vocabulary core.Mapper.Map emits — so
// rankfile and baseline runs are no longer silently missing the mapping
// phase from traces and run reports. With profiling labels on (the
// -listen telemetry server enables them), every policy execution —
// SelfObserving included — additionally runs under the lama_policy pprof
// label, so CPU profiles attribute samples per strategy.
func Run(ctx context.Context, p Policy, req *Request) (*core.Map, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if pes := req.Opts.PEsPerProc; pes > 1 {
		if _, ok := p.(PEsAware); !ok {
			return nil, fmt.Errorf("%w: %q asked for %d", ErrPEsPerProc, p.Name(), pes)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	o := req.Opts.Obs
	if _, self := p.(SelfObserving); self {
		return invoke(ctx, p, req, o)
	}
	var t0 time.Time
	if o != nil {
		t0 = time.Now() //lama:nondet-ok latency observability only, never reaches mapping output
	}
	endPlace := o.StartSpan(obs.SpanPlace)
	m, err := invoke(ctx, p, req, o)
	endPlace()
	if o == nil {
		return m, err
	}
	if err != nil {
		o.Reg().Counter("lama_map_stalls_total").Inc()
		if o.Enabled() {
			o.Emit(obs.SrcMap, obs.EvStall,
				obs.F("policy", p.Name()),
				obs.F("np", req.NP),
				obs.F("error", err.Error()))
		}
		return nil, err
	}
	us := float64(time.Since(t0)) / float64(time.Microsecond) //lama:nondet-ok latency observability only, never reaches mapping output
	if reg := o.Reg(); reg != nil {
		reg.Histogram("lama_map_duration_us", obs.LatencyBucketsUs).Observe(us)
		reg.Counter("lama_maps_total").Inc()
		reg.Counter("lama_ranks_placed_total").Add(int64(len(m.Placements)))
	}
	if o.Enabled() {
		o.Emit(obs.SrcMap, obs.EvDone,
			obs.F("policy", p.Name()),
			obs.F("np", req.NP),
			obs.F("placed", len(m.Placements)),
			obs.F("sweeps", m.Sweeps),
			obs.F("us", us))
	}
	return m, nil
}

// invoke runs the policy, under its lama_policy pprof label when profiling
// labels are on; when they are off (every benchmark and allocation-pinned
// path) it is a plain call with zero extra cost.
func invoke(ctx context.Context, p Policy, req *Request, o *obs.Observer) (m *core.Map, err error) {
	if !o.PprofLabeled() {
		return p.Place(ctx, req)
	}
	obs.WithPprofLabel(obs.PprofLabelPolicy, p.Name(), func() {
		m, err = p.Place(ctx, req)
	})
	return m, err
}
