package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"lama/internal/cluster"
	"lama/internal/hw"
	"lama/internal/obs"
)

// ErrOversubscribe is returned when a mapping cannot complete without
// sharing processing units and Options.Oversubscribe is false.
var ErrOversubscribe = errors.New("core: mapping would oversubscribe processing units")

// ErrNoResources is returned when a sweep of the entire resource space
// finds nothing mappable (e.g. everything off-lined or capped).
var ErrNoResources = errors.New("core: no mappable resources")

// Mapper plans process placements for one cluster using one process layout.
//
// A Mapper keeps reusable execution state between calls: the pruned
// maximal tree and the claim/scratch arrays; each leaf's usable PUs are
// read from its node's topology (hw.Topology.UsableAt).
// Repeated Map/MapTraced calls on one Mapper therefore run with near-zero
// allocation, and the cached state is revalidated on every call against
// the layout, the options, and each node's topology identity. Map freezes
// every topology it caches against (hw.Topology.Freeze): availability is
// fixed before the first Map, and a changed cluster is a new one, such as
// a derived cluster.Snapshot, that the Mapper may be re-pointed at.
// Because of that reusable state a Mapper must NOT be used from multiple
// goroutines at once; create one Mapper per goroutine (as place.SweepEach
// does for each pool worker).
type Mapper struct {
	Cluster *cluster.Cluster
	Layout  Layout
	Opts    Options

	state *runState
}

// NewMapper validates and builds a mapper. The layout must include the
// node level ("n") so that every rank is assigned to a node.
func NewMapper(c *cluster.Cluster, layout Layout, opts Options) (*Mapper, error) {
	if c == nil || c.NumNodes() == 0 {
		return nil, fmt.Errorf("core: empty cluster")
	}
	if err := checkLayout(layout); err != nil {
		return nil, err
	}
	return &Mapper{Cluster: c, Layout: layout, Opts: opts}, nil
}

// checkLayout rejects a layout without the node level: every rank must be
// assigned to a node.
func checkLayout(layout Layout) error {
	if !layout.Contains(hw.LevelMachine) {
		return fmt.Errorf("core: layout %q must include the node level 'n'", layout)
	}
	return nil
}

// capState tracks one ALPS-style per-resource cap during a run: rank
// counts per object of the capped level, index-addressed as
// offsets[node]+Logical. The machine level is counted via nodeCount
// instead of its own array.
type capState struct {
	level   hw.Level
	limit   int32
	machine bool
	counts  []int32
	offsets []int32
}

// runState is the reusable execution state of one Mapper: everything the
// recursive loop nest (paper Fig. 1) touches per visited coordinate is an
// index-addressed slice here, so the steady-state hot path performs no
// map operations and no allocations.
type runState struct {
	layoutLevels []hw.Level // iteration order the state was built for
	tree         *denseTree
	iterLevels   []hw.Level // innermost first (layout order)
	widths       []int      // iteration width per iterLevels index
	orders       [][]int    // visiting permutation per iterLevels index
	ordersCustom bool       // orders came from Opts.IterOrder
	machineIdx   int        // index of the node level within iterLevels
	canonPos     []int      // iterLevels index -> canonical intra position (-1 for node)

	coords      []int   // current iteration coordinate per iterLevels index
	canonCoords []int   // scratch: canonical intra-node coordinates
	claims      []int32 // rank claims per global leaf ID
	nodeCount   []int32 // ranks per node
	nodeLimit   []int32 // per-node slot cap, -1 none (RespectSlots only)
	caps        []capState
	capHits     []int32 // scratch: cap count indices to bump on placement

	np, pes        int
	placements     []Placement
	pusBacking     []int // one backing array for all placements' PU claims
	sweeps         int
	sweepEnds      []int // rank count at the end of every sweep but the last
	skippedOversub bool  // a leaf was skipped due to the oversubscribe rule

	// trace, when non-nil, is invoked at every visited coordinate
	// (MapTraced); rank is -1 for skip events. Every run sets it.
	trace func(r *runState, action TraceAction, rank int)
}

// emit reports a trace event if tracing is enabled.
func (r *runState) emit(action TraceAction, rank int) {
	if r.trace != nil {
		r.trace(r, action, rank)
	}
}

func levelsEqual(a, b []hw.Level) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ensure revalidates (or builds) the mapper's reusable state for the
// current layout, options, and node topologies, then resets the
// per-run fields for a run of np ranks. The layout is checked whenever the
// state is rebuilt, which every layout change forces, so a Mapper literal
// with a node-less layout fails like NewMapper does.
func (m *Mapper) ensure(np int) (*runState, error) {
	if np <= 0 {
		return nil, fmt.Errorf("core: non-positive process count %d", np)
	}
	r := m.state
	reorder := false
	if r == nil || !levelsEqual(r.layoutLevels, m.Layout.Levels()) || !r.tree.freshFor(m.Cluster) {
		if err := checkLayout(m.Layout); err != nil {
			return nil, err
		}
		r, reorder = m.buildState(r)
		m.state = r
	}
	// The visiting orders derive from the widths and the options. The
	// default sequential orders are cached with the tree and recomputed
	// only when a width changes; custom IterOrder functions are re-queried
	// every run (they may close over state).
	if reorder || r.ordersCustom || m.Opts.IterOrder != nil {
		r.ordersCustom = m.Opts.IterOrder != nil
		for i, l := range r.iterLevels {
			perm, err := validOrder(m.Opts.orderFor(l), r.widths[i])
			if err != nil {
				return nil, fmt.Errorf("%v (level %s)", err, l)
			}
			r.orders[i] = perm
		}
	}
	for _, w := range r.widths {
		if w == 0 {
			// A layout level with no objects anywhere (possible only with
			// hand-decoded irregular trees): nothing is mappable.
			return nil, stallError(m.Layout, np, 0, false)
		}
	}
	if err := m.resetRun(r, np); err != nil {
		return nil, err
	}
	return r, nil
}

// buildState brings the reusable state up to date with the current
// cluster and layout, starting from prev (nil on a mapper's first run):
// it refreshes prev's dense maximal tree in place (through the shape
// cache, for the nodes that changed), rebuilds the layout-derived
// iteration arrays when the layout changed, and reuses the claim arrays.
// It reports whether any iteration width changed, which invalidates the
// cached visiting orders. The two one-off phases are observable as spans:
// "prune" covers the dense tree refresh, "build-shape" the index-addressed
// iteration state derived from it.
//
//lama:coldpath one-off state construction, runs once per (cluster, layout) change, not per Map call
func (m *Mapper) buildState(prev *runState) (*runState, bool) {
	o := m.Opts.Obs
	intra := m.Layout.IntraNode()
	tree := &denseTree{}
	if prev != nil {
		tree = prev.tree
	}
	endPrune := o.StartSpan(obs.SpanPrune)
	tree.refresh(m.Cluster, intra)
	endPrune()
	endBuild := o.StartSpan(obs.SpanBuildShape)
	defer endBuild()
	r, reorder := prev, false
	if r == nil || !levelsEqual(r.layoutLevels, m.Layout.Levels()) {
		r = &runState{
			layoutLevels: append([]hw.Level(nil), m.Layout.Levels()...),
			iterLevels:   m.Layout.Levels(),
			machineIdx:   -1,
		}
		n := len(r.iterLevels)
		r.widths = make([]int, n)
		r.orders = make([][]int, n)
		r.canonPos = make([]int, n)
		r.coords = make([]int, n)
		r.canonCoords = make([]int, len(intra))
		for i, l := range r.iterLevels {
			r.canonPos[i] = -1
			if l == hw.LevelMachine {
				r.machineIdx = i
				continue
			}
			for p, il := range intra {
				if il == l {
					r.canonPos[i] = p
				}
			}
		}
		reorder = true
	}
	r.tree = tree
	for i, p := range r.canonPos {
		w := m.Cluster.NumNodes()
		if p >= 0 {
			w = tree.widths[p]
		}
		if w != r.widths[i] {
			r.widths[i], reorder = w, true
		}
	}
	r.claims = resized(r.claims, tree.totalLeaves)
	r.nodeCount = resized(r.nodeCount, m.Cluster.NumNodes())
	return r, reorder
}

// resetRun prepares the per-run fields: zeroed claim counters, per-run
// slot limits and resource caps, and the output placement storage.
func (m *Mapper) resetRun(r *runState, np int) error {
	r.np, r.pes = np, m.Opts.pes()
	r.sweeps = 0
	r.sweepEnds = nil
	r.skippedOversub = false
	for i := range r.claims {
		r.claims[i] = 0
	}
	for i := range r.nodeCount {
		r.nodeCount[i] = 0
	}
	// Scheduler slot caps (Open MPI hostfile semantics): without
	// --oversubscribe, a node accepts at most its slot count of ranks;
	// with it, the hostfile's max_slots hard cap (when declared) still
	// bounds the node.
	if m.Opts.RespectSlots {
		if cap(r.nodeLimit) < m.Cluster.NumNodes() {
			r.nodeLimit = make([]int32, m.Cluster.NumNodes())
		}
		r.nodeLimit = r.nodeLimit[:m.Cluster.NumNodes()]
		for i, node := range m.Cluster.Nodes {
			limit := int32(-1)
			if !m.Opts.Oversubscribe {
				limit = int32(node.EffectiveSlots())
			} else if node.MaxSlots > 0 {
				limit = int32(node.MaxSlots)
			}
			r.nodeLimit[i] = limit
		}
	} else {
		r.nodeLimit = r.nodeLimit[:0]
	}
	if err := m.resetCaps(r); err != nil {
		return err
	}
	// One backing array serves every placement's PU claims, so placing a
	// rank allocates nothing.
	r.placements = make([]Placement, 0, np)
	r.pusBacking = make([]int, np*r.pes)
	return nil
}

// resetCaps rebuilds the per-resource (ALPS-style) cap counters from
// Options.MaxPerResource, reusing the count arrays when the capped levels
// are unchanged.
func (m *Mapper) resetCaps(r *runState) error {
	if len(m.Opts.MaxPerResource) == 0 {
		r.caps = r.caps[:0]
		return nil
	}
	r.caps = r.caps[:0]
	for _, l := range r.iterLevels {
		limit := m.Opts.capFor(l)
		if limit <= 0 {
			continue
		}
		cs := capState{level: l, limit: int32(limit), machine: l == hw.LevelMachine}
		if !cs.machine {
			nodes := m.Cluster.NumNodes()
			cs.offsets = make([]int32, nodes)
			total := 0
			for i, node := range m.Cluster.Nodes {
				cs.offsets[i] = int32(total)
				total += node.Topo.NumObjects(l)
			}
			cs.counts = make([]int32, total)
		}
		r.caps = append(r.caps, cs)
	}
	return nil
}

// Map executes the LAMA: the recursive loop nest of the paper's Figure 1,
// wrapped in the outer while-loop that re-sweeps the resource space until
// every rank is placed (or no progress is possible). With an Observer in
// the options the run is instrumented — a "place" span envelops the call,
// each resource-space traversal records a "sweep" span, and completion
// lands a "map"/"done" event plus latency metrics; with a nil Observer
// (the default) none of the instrumentation paths execute. When the
// observer's PhaseTimer has pprof labels enabled (the -listen telemetry
// server does this), each span additionally labels the goroutine with
// lama_phase, so CPU profiles attribute samples per mapping phase.
//
//lama:hotpath
func (m *Mapper) Map(np int) (*Map, error) {
	return m.MapContext(context.Background(), np)
}

// MapContext is Map with cooperative cancellation: the context is checked
// once per resource-space sweep (a phase boundary), never inside the
// per-coordinate inner loops, so cancellation support costs the hot path
// nothing — the 3-allocs/op steady state is unchanged. A canceled run
// returns an error wrapping ctx.Err(); partial placements are discarded.
//
//lama:hotpath
func (m *Mapper) MapContext(ctx context.Context, np int) (*Map, error) {
	return m.run(ctx, np, nil)
}

// run is the mapping loop of MapContext and, with a trace hook invoked at
// every visited coordinate, of MapTracedContext.
func (m *Mapper) run(ctx context.Context, np int, trace func(r *runState, action TraceAction, rank int)) (*Map, error) {
	o := m.Opts.Obs
	var t0 time.Time
	if o != nil {
		t0 = time.Now() //lama:nondet-ok latency observability only, never reaches mapping output
	}
	endPlace := o.StartSpan(obs.SpanPlace)
	r, err := m.ensure(np)
	if err != nil {
		endPlace()
		return nil, err
	}
	r.trace = trace
	for len(r.placements) < np {
		if ctx.Err() != nil {
			endPlace()
			return nil, mapCanceled(ctx, np, len(r.placements))
		}
		if !r.sweep(m, o) {
			err := stallError(m.Layout, np, len(r.placements), r.skippedOversub)
			endPlace()
			m.observeStall(o, np, len(r.placements), err)
			return nil, err
		}
	}
	out := r.finish(m)
	endPlace()
	m.observeDone(o, np, out, t0)
	return out, nil
}

// sweep runs one traversal of the resource space under a "sweep" span
// and reports whether it placed any rank. A sweep after the first records
// where the one before it ended (SweepEnds), so the slice is allocated
// only by a run that wraps.
func (r *runState) sweep(m *Mapper, o *obs.Observer) bool {
	before := len(r.placements)
	if r.sweeps > 0 {
		r.sweepEnds = append(r.sweepEnds, before)
	}
	endSweep := o.StartSpan(obs.SpanSweep)
	r.inner(m, len(r.iterLevels)-1)
	endSweep()
	r.sweeps++
	return len(r.placements) > before
}

// observeDone reports one completed mapping run to the observer: a
// "map"/"done" event and the placement-latency metrics. Callers only
// invoke it with o possibly nil; every path inside is nil-safe.
//
//lama:coldpath observability reporting, gated on an attached observer
func (m *Mapper) observeDone(o *obs.Observer, np int, out *Map, t0 time.Time) {
	if o == nil {
		return
	}
	us := float64(time.Since(t0)) / float64(time.Microsecond) //lama:nondet-ok latency observability only, never reaches mapping output
	if reg := o.Reg(); reg != nil {
		reg.Histogram("lama_map_duration_us", obs.LatencyBucketsUs).Observe(us)
		reg.Counter("lama_maps_total").Inc()
		reg.Counter("lama_ranks_placed_total").Add(int64(len(out.Placements)))
	}
	if o.Enabled() {
		o.Emit(obs.SrcMap, obs.EvDone,
			obs.F("layout", m.Layout.String()),
			obs.F("np", np),
			obs.F("placed", len(out.Placements)),
			obs.F("sweeps", out.Sweeps),
			obs.F("us", us))
	}
}

// observeStall reports a mapping run that stalled before placing np ranks.
//
//lama:coldpath observability reporting on the stall exit, gated on an attached observer
func (m *Mapper) observeStall(o *obs.Observer, np, placed int, err error) {
	if o == nil {
		return
	}
	o.Reg().Counter("lama_map_stalls_total").Inc()
	if o.Enabled() {
		o.Emit(obs.SrcMap, obs.EvStall,
			obs.F("layout", m.Layout.String()),
			obs.F("np", np),
			obs.F("placed", placed),
			obs.F("error", err.Error()))
	}
}

// inner is the recursive heart of the LAMA (paper Fig. 1): it iterates the
// resources of one layout level and recurses toward the innermost level,
// where the current coordinate tuple is mapped if it exists and is
// available.
func (r *runState) inner(m *Mapper, levelIdx int) {
	for _, i := range r.orders[levelIdx] {
		r.coords[levelIdx] = i
		if levelIdx > 0 {
			r.inner(m, levelIdx-1)
		} else {
			r.tryMap(m)
		}
		if len(r.placements) == r.np {
			return
		}
	}
}

// tryMap attempts to place the next rank at the current coordinates,
// skipping coordinates that do not exist on the node, are unavailable,
// are capped, or would oversubscribe when that is disallowed. Steady
// state, this performs only slice indexing: leaf existence comes from the
// node's pruned shape, its usable PUs from the node's topology window
// table, and claims and caps are dense counters.
func (r *runState) tryMap(m *Mapper) {
	node := 0
	if r.machineIdx >= 0 {
		node = r.coords[r.machineIdx]
	}
	for i, c := range r.coords {
		if p := r.canonPos[i]; p >= 0 {
			r.canonCoords[p] = c
		}
	}
	shape, topo := r.tree.shapes[node], r.tree.topos[node]
	leaf := shape.lookup(r.canonCoords)
	if leaf < 0 {
		r.emit(SkipNonexistent, -1)
		return // resource does not exist on this node
	}
	logical := int(shape.leafLogical[leaf])
	ups := topo.UsableAt(shape.leafLevel, logical)
	if len(ups) == 0 {
		r.emit(SkipUnavailable, -1)
		return // resource unavailable (off-lined / disallowed)
	}
	if len(r.nodeLimit) > 0 {
		if limit := r.nodeLimit[node]; limit >= 0 && r.nodeCount[node] >= limit {
			r.skippedOversub = true
			r.emit(SkipCapped, -1)
			return
		}
	}
	// ALPS-style per-resource rank caps, checked before the
	// oversubscription rule: a capped resource is unmappable regardless.
	leafObj := topo.ObjectAt(shape.leafLevel, logical)
	r.capHits = r.capHits[:0]
	for ci := range r.caps {
		cs := &r.caps[ci]
		if cs.machine {
			if r.nodeCount[node] >= cs.limit {
				r.emit(SkipCapped, -1)
				return
			}
			continue
		}
		obj := leafObj.Ancestor(cs.level)
		if obj == nil {
			continue
		}
		idx := cs.offsets[node] + int32(obj.Logical)
		if cs.counts[idx] >= cs.limit {
			r.emit(SkipCapped, -1)
			return
		}
		r.capHits = append(r.capHits, int32(ci), idx)
	}
	prior := int(r.claims[r.tree.leafBase[node]+leaf])
	base := prior * r.pes
	oversub := base+r.pes > len(ups)
	if oversub && !m.Opts.Oversubscribe {
		r.skippedOversub = true
		r.emit(SkipOversub, -1)
		return
	}

	at := len(r.placements) * r.pes
	pus := r.pusBacking[at : at+r.pes : at+r.pes]
	for j := 0; j < r.pes; j++ {
		pus[j] = ups[(base+j)%len(ups)].OS
	}
	r.placements = append(r.placements, Placement{
		Rank:           len(r.placements),
		Node:           node,
		NodeName:       m.Cluster.Node(node).Name,
		Leaf:           leafObj,
		PUs:            pus,
		Oversubscribed: oversub,
	})
	r.emit(Mapped, len(r.placements)-1)
	r.claims[r.tree.leafBase[node]+leaf]++
	r.nodeCount[node]++
	for h := 0; h < len(r.capHits); h += 2 {
		cs := &r.caps[r.capHits[h]]
		cs.counts[r.capHits[h+1]]++
	}
}

// stallError explains a sweep that placed nothing: oversubscription was
// the blocker if any leaf was skipped for it, otherwise resources ran out.
func stallError(layout Layout, np, placed int, skippedOversub bool) error {
	kind := ErrNoResources
	if skippedOversub {
		kind = ErrOversubscribe
	}
	return fmt.Errorf("%w: %d of %d ranks unplaced (layout %q)",
		kind, np-placed, np, layout)
}

// mapCanceled explains a run abandoned at a sweep boundary because its
// context was canceled or timed out.
//
//lama:coldpath cancellation exit, runs at most once per Map call
func mapCanceled(ctx context.Context, np, placed int) error {
	return fmt.Errorf("core: mapping canceled with %d of %d ranks unplaced: %w",
		np-placed, np, ctx.Err())
}

// finish hands the placements to the returned Map and detaches them from
// the reusable state.
func (r *runState) finish(m *Mapper) *Map {
	out := &Map{Layout: m.Layout, Placements: r.placements, Sweeps: r.sweeps, SweepEnds: r.sweepEnds}
	r.placements = nil
	r.pusBacking = nil
	r.sweepEnds = nil
	return out
}
