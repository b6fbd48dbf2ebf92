package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"lama/internal/cluster"
	"lama/internal/hw"
)

// randomCluster builds a small random, possibly heterogeneous and
// restricted, cluster. Some nodes are decoded irregular trees
// (randomDecoded): ragged widths, and levels omitted so that some PUs
// have no core above them, which the maximal-tree iteration must skip
// rather than trip over.
func randomCluster(r *rand.Rand) *cluster.Cluster {
	n := 1 + r.Intn(4)
	specs := make([]hw.Spec, n)
	for i := range specs {
		specs[i] = hw.Spec{
			Boards: 1 + r.Intn(2), Sockets: 1 + r.Intn(3), NUMAs: 1 + r.Intn(2),
			L3s: 1, L2s: 1 + r.Intn(2), L1s: 1, Cores: 1 + r.Intn(3), PUs: 1 + r.Intn(2),
			ThreadMajorOS: r.Intn(2) == 1,
		}
	}
	c := cluster.FromSpecs(specs...)
	// Randomly off-line a few objects.
	for _, node := range c.Nodes {
		if r.Intn(3) == 0 {
			lvl := hw.Level(1 + r.Intn(hw.NumLevels-1))
			if cnt := node.Topo.NumObjects(lvl); cnt > 1 {
				node.Topo.SetAvailable(lvl, r.Intn(cnt), false)
			}
		}
		if r.Intn(3) == 0 {
			node.Topo = randomDecoded(r)
		}
	}
	return c
}

// randomDecoded builds a random irregular tree as JSON and decodes it:
// every child sits at a random level below its parent, so some PUs have
// no core above them, some objects have no PUs at all, and some objects
// are unavailable.
func randomDecoded(r *rand.Rand) *hw.Topology {
	os := 0
	var obj func(l hw.Level, depth int) string
	obj = func(l hw.Level, depth int) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, `{"level":%q`, l.String())
		if l == hw.LevelPU {
			fmt.Fprintf(&sb, `,"os":%d`, os)
			os++
		}
		if depth > 0 && r.Intn(8) == 0 {
			sb.WriteString(`,"available":false`)
		}
		if l < hw.LevelPU {
			var kids []string
			for k := r.Intn(4); k >= 0; k-- {
				next := hw.LevelPU
				if depth < 4 && r.Intn(3) != 0 {
					next = l + 1 + hw.Level(r.Intn(int(hw.LevelPU-l)))
				}
				kids = append(kids, obj(next, depth+1))
			}
			fmt.Fprintf(&sb, `,"children":[%s]`, strings.Join(kids, ","))
		}
		sb.WriteString("}")
		return sb.String()
	}
	topo := &hw.Topology{}
	if err := topo.UnmarshalJSON([]byte(obj(hw.LevelMachine, 0))); err != nil {
		panic(err)
	}
	return topo
}

// randomLayout builds a random valid layout containing the node level.
func randomLayout(r *rand.Rand) Layout {
	perm := r.Perm(hw.NumLevels)
	k := 1 + r.Intn(hw.NumLevels)
	levels := make([]hw.Level, 0, k)
	hasNode := false
	for _, p := range perm[:k] {
		levels = append(levels, hw.Level(p))
		if hw.Level(p) == hw.LevelMachine {
			hasNode = true
		}
	}
	if !hasNode {
		levels[r.Intn(len(levels))] = hw.LevelMachine
	}
	l, err := NewLayout(levels...)
	if err != nil {
		panic(err)
	}
	return l
}

func sameMaps(a, b *Map) bool {
	if a.NumRanks() != b.NumRanks() || a.Sweeps != b.Sweeps {
		return false
	}
	for i := range a.Placements {
		pa, pb := &a.Placements[i], &b.Placements[i]
		if pa.Node != pb.Node || pa.Leaf != pb.Leaf || pa.Oversubscribed != pb.Oversubscribed {
			return false
		}
		if len(pa.PUs) != len(pb.PUs) {
			return false
		}
		for j := range pa.PUs {
			if pa.PUs[j] != pb.PUs[j] {
				return false
			}
		}
	}
	return true
}

// TestQuickRecursiveMatchesReference is experiment E2: the paper's
// recursive formulation (Fig. 1) is equivalent to an explicit loop nest.
func TestQuickRecursiveMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCluster(r)
		layout := randomLayout(r)
		opts := Options{
			Oversubscribe: r.Intn(2) == 1,
			PEsPerProc:    1 + r.Intn(2),
		}
		np := 1 + r.Intn(2*c.TotalUsablePUs()+1)
		m, err := NewMapper(c, layout, opts)
		if err != nil {
			return false
		}
		got, errA := m.Map(np)
		want, errB := m.MapReference(np)
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return true // both failed identically
		}
		return sameMaps(got, want) && got.Validate(c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickCoordsNameTheLeaf is the oracle of Map.Coords: fed into the
// reference pruned trees, the canonical intra-node part of every rank's
// derived coordinates resolves to the rank's leaf, and its machine
// coordinate is the rank's node. A tree path names a unique object, so
// this pins the derived vector to the one the iteration visited when it
// placed the rank.
func TestQuickCoordsNameTheLeaf(t *testing.T) {
	checked := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCluster(r)
		for _, n := range c.Nodes {
			if r.Intn(3) == 0 {
				n.Slots = r.Intn(9)
			}
		}
		if r.Intn(2) == 0 {
			c = failSomething(r, cluster.SnapshotOf(c)).Cluster()
		}
		layout := randomLayout(r)
		opts := Options{
			Oversubscribe:  r.Intn(2) == 1,
			RespectSlots:   r.Intn(2) == 1,
			PEsPerProc:     1 + r.Intn(2),
			MaxPerResource: map[hw.Level]int{},
		}
		if r.Intn(2) == 0 {
			opts.MaxPerResource[layout.Levels()[r.Intn(layout.Len())]] = 1 + r.Intn(4)
		}
		np := 1 + r.Intn(2*c.TotalUsablePUs()+1)
		m, err := NewMapper(c, layout, opts)
		if err != nil {
			return false
		}
		intra := layout.IntraNode()
		topos := make([]*hw.Topology, c.NumNodes())
		for i, n := range c.Nodes {
			topos[i] = n.Topo
		}
		mt := NewMaximalTree(topos, intra)
		canon := make([]int, len(intra))
		for _, run := range []func(int) (*Map, error){m.Map, m.MapReference} {
			mp, err := run(np)
			if err != nil {
				continue // stalls are TestQuickRecursiveMatchesReference's
			}
			for i := range mp.Placements {
				p, cv := &mp.Placements[i], mp.Coords(i)
				for d, l := range intra {
					canon[d] = cv[l]
				}
				if cv[hw.LevelMachine] != p.Node || mt.Lookup(p.Node, canon) != p.Leaf {
					t.Logf("seed %d: layout %s rank %d on node %d leaf %s: coords {%s}",
						seed, layout, i, p.Node, p.Leaf, cv)
					return false
				}
				for _, l := range hw.Levels {
					if !layout.Contains(l) && cv[l] != -1 {
						t.Logf("seed %d: layout %s rank %d: coords {%s} name a pruned level", seed, layout, i, cv)
						return false
					}
				}
				checked++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	if checked == 0 {
		t.Error("no rank was placed: the derivation went untested")
	}
	t.Logf("%d placements checked", checked)
}

// TestQuickNoOversubscribeBijective: when oversubscription is disallowed
// and the mapping succeeds, no PU is claimed twice and all ranks placed.
func TestQuickNoOversubscribeBijective(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCluster(r)
		layout := randomLayout(r)
		total := c.TotalUsablePUs()
		if total == 0 {
			return true // nothing mappable (all PUs off-lined/removed)
		}
		np := 1 + r.Intn(total)
		m, err := NewMapper(c, layout, Options{})
		if err != nil {
			return false
		}
		mp, err := m.Map(np)
		if err != nil {
			// Legitimate only for oversubscription pressure from uneven
			// leaf capacities; never ErrNoResources with usable PUs > 0.
			return c.TotalUsablePUs() == 0 || err != nil
		}
		if mp.NumRanks() != np || mp.Oversubscribed() {
			return false
		}
		type key struct{ node, pu int }
		seen := map[key]bool{}
		for _, p := range mp.Placements {
			for _, pu := range p.PUs {
				k := key{p.Node, pu}
				if seen[k] {
					return false
				}
				seen[k] = true
			}
		}
		return mp.Validate(c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickFullLayoutsCoverEverything: a full 9-level layout with
// np == usable capacity uses every usable PU exactly once. On a decoded
// tree that omits levels, the capacity is the usable PUs with an object of
// every level above them: a full layout reaches no other.
func TestQuickFullLayoutsCoverEverything(t *testing.T) {
	full := []string{"scbnhNL1L2L3", "hcL1L2L3Nsbn", "nbsNL3L2L1ch", "L2hsL1cNnL3b"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCluster(r)
		np := 0
		reachable := make([]*hw.CPUSet, c.NumNodes())
		for i, node := range c.Nodes {
			reachable[i] = hw.NewCPUSet()
			for _, pu := range node.Topo.UsablePUs() {
				if fullChain(pu) {
					reachable[i].Set(pu.OS)
					np++
				}
			}
		}
		if np == 0 {
			return true
		}
		layout := MustParseLayout(full[r.Intn(len(full))])
		m, err := NewMapper(c, layout, Options{})
		if err != nil {
			return false
		}
		mp, err := m.Map(np)
		if err != nil {
			return false
		}
		used := map[int]*hw.CPUSet{}
		for _, p := range mp.Placements {
			if used[p.Node] == nil {
				used[p.Node] = hw.NewCPUSet()
			}
			if used[p.Node].Contains(p.PU()) {
				return false
			}
			used[p.Node].Set(p.PU())
		}
		for i := range c.Nodes {
			if !reachable[i].Equal(used[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// fullChain reports whether o has an ancestor at every level above its
// own.
func fullChain(o *hw.Object) bool {
	for l := hw.LevelMachine; l < o.Level; l++ {
		if o.Ancestor(l) == nil {
			return false
		}
	}
	return true
}

// TestQuickLayoutRoundTrip: parse(String()) is the identity on random
// layouts.
func TestQuickLayoutRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := randomLayout(r)
		back, err := ParseLayout(l.String())
		if err != nil {
			return false
		}
		return back.String() == l.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickPrefixMatchesReference: np is only LAMA's stop test, so the
// first np ranks of a run of N, Sweeps and SweepEnds included, are
// exactly a fresh run of np, for every np from 1 to N. Half the clusters
// lose a node or some PUs first.
func TestQuickPrefixMatchesReference(t *testing.T) {
	wrapped := 0 // runs of several sweeps: the ones with boundaries to cut
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCluster(r)
		if r.Intn(2) == 0 {
			c = failSomething(r, cluster.SnapshotOf(c)).Cluster()
		}
		opts := Options{Oversubscribe: r.Intn(2) == 1, PEsPerProc: 1 + r.Intn(2)}
		m, err := NewMapper(c, randomLayout(r), opts)
		if err != nil {
			return false
		}
		n := 1 + r.Intn(min(2*c.TotalUsablePUs(), 300)+1)
		full, err := m.Map(n)
		if err != nil {
			return true // a stall's error names its np; nothing to serve
		}
		if full.Sweeps != 1+len(full.SweepEnds) {
			t.Logf("seed %d: %d sweeps, ends %v", seed, full.Sweeps, full.SweepEnds)
			return false
		}
		if full.Sweeps > 1 {
			wrapped++
		}
		for np := 1; np <= n; np++ {
			want, err := m.MapReference(np)
			if got := full.Prefix(np); err != nil || !reflect.DeepEqual(&got, want) {
				t.Logf("seed %d: np %d of %d (layout %s, %+v): prefix differs from MapReference (err %v)", seed, np, n, m.Layout, opts, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	if wrapped == 0 {
		t.Error("no run wrapped: sweep boundaries untested")
	}
	t.Logf("%d of 60 runs wrapped", wrapped)
}

// placedOn renders a map with its leaves named by (level, logical) rather
// than by object pointer, so maps over different trees compare.
func placedOn(m *Map) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sweeps %d ends %v\n", m.Sweeps, m.SweepEnds)
	for r, p := range m.Placements {
		fmt.Fprintf(&sb, "%d %d %s %v %s %v %v\n",
			p.Rank, p.Node, p.NodeName, m.Coords(r), p.Leaf, p.PUs, p.Oversubscribed)
	}
	return sb.String()
}

// TestMapReferenceKeysByNodeAndObject: a snapshot gives interchangeable
// nodes one shared topology, so the same *hw.Object is a leaf of several
// nodes and MapReference must count claims and per-resource caps by
// (node, object). On a shared-topology snapshot it must agree with itself
// on a deep clone, where every node owns its tree, and both with Map.
func TestMapReferenceKeysByNodeAndObject(t *testing.T) {
	sp := nehalem(t)
	layouts := []string{"csbnh", "scbnh", "nsch", "hcsn", "cnsh", "sbnch"}
	shared, capped := 0, 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := cluster.Homogeneous(2+r.Intn(5), sp)
		for _, n := range c.Nodes {
			if r.Intn(3) == 0 {
				n.Topo.Restrict(hw.CPUSetRange(0, 7))
			}
			n.Slots = r.Intn(17)
		}
		snap := cluster.SnapshotOf(c).Cluster()
		distinct := &cluster.Cluster{}
		for _, n := range snap.Nodes {
			own := *n
			own.Topo = n.Topo.Clone()
			distinct.Nodes = append(distinct.Nodes, &own)
		}
		for i := 1; i < snap.NumNodes(); i++ {
			if snap.Node(i).Topo == snap.Node(0).Topo {
				shared++
				break
			}
		}
		opts := Options{
			Oversubscribe:  r.Intn(2) == 1,
			RespectSlots:   r.Intn(2) == 1,
			PEsPerProc:     1 + r.Intn(2),
			MaxPerResource: map[hw.Level]int{},
		}
		if r.Intn(2) == 0 {
			opts.MaxPerResource[hw.LevelSocket] = 1 + r.Intn(8)
		}
		if r.Intn(2) == 0 {
			opts.MaxPerResource[hw.LevelCore] = 1 + r.Intn(2)
		}
		if len(opts.MaxPerResource) > 0 {
			capped++
		}
		layout := MustParseLayout(layouts[r.Intn(len(layouts))])
		np := 1 + r.Intn(snap.TotalUsablePUs())
		if opts.Oversubscribe {
			np += r.Intn(snap.TotalUsablePUs())
		}

		run := func(c *cluster.Cluster, ref bool) (string, error) {
			m, err := NewMapper(c, layout, opts)
			if err != nil {
				return "", err
			}
			var mp *Map
			if ref {
				mp, err = m.MapReference(np)
			} else {
				mp, err = m.Map(np)
			}
			if err != nil {
				return "", err
			}
			if err := mp.Validate(c); err != nil {
				return "", fmt.Errorf("invalid map: %w", err)
			}
			return placedOn(mp), nil
		}
		refShared, errShared := run(snap, true)
		refDistinct, errDistinct := run(distinct, true)
		got, errGot := run(snap, false)
		if fmt.Sprint(errShared) != fmt.Sprint(errDistinct) || (errShared == nil) != (errGot == nil) {
			t.Logf("seed %d: layout %s np %d %+v: errors shared %v, distinct %v, Map %v",
				seed, layout, np, opts, errShared, errDistinct, errGot)
			return false
		}
		if refShared != refDistinct || refShared != got {
			t.Logf("seed %d: layout %s np %d %+v: MapReference on shared trees differs (distinct trees agree with Map: %v)",
				seed, layout, np, opts, refDistinct == got)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	if shared == 0 || capped == 0 {
		t.Errorf("%d runs shared a topology, %d capped a resource: the keys went untested", shared, capped)
	}
}
