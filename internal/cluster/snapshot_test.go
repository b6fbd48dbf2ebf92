package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"lama/internal/hw"
)

func TestSnapshotCaptureIsDeep(t *testing.T) {
	c := Homogeneous(3, specNehalem(t))
	s := SnapshotOf(c)
	if s.Epoch() != 1 {
		t.Fatalf("fresh epoch = %d, want 1", s.Epoch())
	}
	// Mutating the live cluster must not leak into the snapshot.
	c.Nodes[0].Topo.SetAvailable(hw.LevelMachine, 0, false)
	if s.Cluster().Node(0).Topo.NumUsablePUs() == 0 {
		t.Fatal("snapshot saw a post-capture mutation")
	}
	// The capture keeps each node's fields; its tree is a copy, so
	// restricting the live cluster's tree leaves the snapshot's alone.
	c.Nodes[1].Slots = 4
	s = SnapshotOf(c)
	c.Nodes[1].Topo.Restrict(hw.NewCPUSet(0))
	if n := s.Cluster().Node(1); n.Topo.NumUsablePUs() != 16 || n.Slots != 4 || n.Name != "node1" {
		t.Fatalf("captured node 1: %s slots %d, %d usable PUs", n.Name, n.Slots, n.Topo.NumUsablePUs())
	}
}

// usablePUs lists every node's usable PU count.
func usablePUs(c *Cluster) []int {
	out := make([]int, c.NumNodes())
	for i, n := range c.Nodes {
		out[i] = n.Topo.NumUsablePUs()
	}
	return out
}

// TestFailNode: failing a node empties it and nothing else; failing it
// again, or failing a node that does not exist, returns the receiver.
func TestFailNode(t *testing.T) {
	s := SnapshotOf(Homogeneous(3, specNehalem(t)))
	if got := fmt.Sprint(usablePUs(s.Cluster())); got != "[16 16 16]" {
		t.Fatalf("fresh cluster should be healthy: usable PUs %s", got)
	}
	s, ok := s.FailNode(1)
	if !ok || s.Epoch() != 2 {
		t.Fatalf("FailNode(1) = epoch %d, %v; want epoch 2, true", s.Epoch(), ok)
	}
	if got := fmt.Sprint(usablePUs(s.Cluster())); got != "[16 0 16]" {
		t.Fatalf("only node 1 should be failed: usable PUs %s", got)
	}
	if got := s.Cluster().Nodes[1].EffectiveSlots(); got != 0 {
		t.Fatalf("failed node slots = %d", got)
	}
	// Idempotent; out-of-range rejected. Neither derives a snapshot.
	for _, tc := range []struct {
		node int
		ok   bool
	}{{1, true}, {7, false}, {-1, false}} {
		if got, ok := s.FailNode(tc.node); got != s || ok != tc.ok {
			t.Fatalf("FailNode(%d) = epoch %d, %v; want the receiver, %v", tc.node, got.Epoch(), ok, tc.ok)
		}
	}
	// A node with no usable PU left has nothing to lose either.
	emptied, _ := s.FailPUs(2, hw.CPUSetRange(0, 15))
	if got, _ := emptied.FailNode(2); got != emptied {
		t.Fatal("FailNode of a node without usable PUs must return the receiver")
	}
}

// TestFailPUs: a partial failure counts the usable PUs it removes; PUs
// already gone, an unknown node and a nil set remove none and return the
// receiver; failing every PU empties the node.
func TestFailPUs(t *testing.T) {
	s := SnapshotOf(Homogeneous(2, specNehalem(t))) // 16 PUs per node
	before := s.Cluster().Node(0).Topo.NumUsablePUs()
	s, got := s.FailPUs(0, hw.NewCPUSet(0, 1, 2))
	if got != 3 {
		t.Fatalf("FailPUs = %d, want 3", got)
	}
	if n := s.Cluster().Node(0).Topo.NumUsablePUs(); n != before-3 {
		t.Fatalf("usable = %d", n)
	}
	for _, tc := range []struct {
		what string
		node int
		pus  *hw.CPUSet
	}{
		{"re-failed PUs", 0, hw.NewCPUSet(1, 2)},
		{"unknown node", 9, hw.NewCPUSet(0)},
		{"nil set", 0, nil},
	} {
		if got, n := s.FailPUs(tc.node, tc.pus); got != s || n != 0 {
			t.Fatalf("%s: FailPUs = epoch %d, %d; want the receiver, 0", tc.what, got.Epoch(), n)
		}
	}
	if s.Cluster().Node(0).Topo.NumUsablePUs() == 0 {
		t.Fatal("partial failure must not fail the node")
	}
	// PUs under a failed ancestor are not usable, so failing them loses
	// nothing even though their own flags are still set.
	dead, _ := s.FailNode(1)
	if got, n := dead.FailPUs(1, hw.NewCPUSet(0, 1)); got != dead || n != 0 {
		t.Fatalf("FailPUs on a failed node = %d, want the receiver, 0", n)
	}
	// Failing every PU fails the node.
	s, got = s.FailPUs(1, hw.CPUSetRange(0, 15))
	if got != 16 {
		t.Fatalf("FailPUs(every PU) = %d, want 16", got)
	}
	if n := s.Cluster().Node(1).Topo.NumUsablePUs(); n != 0 {
		t.Fatalf("node 1 should be fully failed, has %d usable PUs", n)
	}
	if n := s.Cluster().Node(1).EffectiveSlots(); n != 0 {
		t.Fatalf("fully failed node slots = %d", n)
	}
}

func TestSnapshotFailNodeCOW(t *testing.T) {
	c := Homogeneous(4, specNehalem(t))
	s1 := SnapshotOf(c)
	s2, ok := s1.FailNode(1)
	if !ok {
		t.Fatal("FailNode(1) should succeed")
	}
	if s2.Epoch() != 2 {
		t.Fatalf("derived epoch = %d, want 2", s2.Epoch())
	}
	// Parent is untouched.
	if got := fmt.Sprint(usablePUs(s1.Cluster())); got != "[16 16 16 16]" {
		t.Fatalf("parent snapshot mutated by FailNode: usable PUs %s", got)
	}
	// Child sees the failure.
	if got := fmt.Sprint(usablePUs(s2.Cluster())); got != "[16 0 16 16]" {
		t.Fatalf("child snapshot missing the failure: usable PUs %s", got)
	}
	// Copy-on-write: untouched nodes share pointers, the failed one split.
	for i := 0; i < 4; i++ {
		same := s1.Cluster().Node(i) == s2.Cluster().Node(i)
		sameTopo := s1.Cluster().Node(i).Topo == s2.Cluster().Node(i).Topo
		if i == 1 && (same || sameTopo) {
			t.Fatal("failed node must be cloned, not shared")
		}
		if i != 1 && (!same || !sameTopo) {
			t.Fatalf("healthy node %d must share its pointer with the parent", i)
		}
	}
	// Signatures: healthy twins keep their per-node sig; the cluster sig
	// and the failed node's sig change.
	if s1.Sig() == s2.Sig() {
		t.Fatal("Sig must change across a failure")
	}
	sig := func(s *Snapshot, i int) string { return stateKey(s.Cluster().Node(i)) }
	if sig(s1, 0) != sig(s2, 0) || sig(s1, 1) == sig(s2, 1) {
		t.Fatal("per-node sigs: twins stable, failed node split")
	}
	// Out of range: receiver returned unchanged.
	if s3, ok := s2.FailNode(99); ok || s3 != s2 {
		t.Fatal("out-of-range FailNode must return the receiver")
	}
}

func TestSnapshotFailPUs(t *testing.T) {
	s1 := SnapshotOf(Homogeneous(2, specNehalem(t)))
	before := s1.Cluster().Node(0).Topo.NumUsablePUs()
	s2, n := s1.FailPUs(0, hw.NewCPUSet(0, 1, 2))
	if n != 3 {
		t.Fatalf("FailPUs = %d, want 3", n)
	}
	if s1.Cluster().Node(0).Topo.NumUsablePUs() != before {
		t.Fatal("parent mutated")
	}
	if got := s2.Cluster().Node(0).Topo.NumUsablePUs(); got != before-3 {
		t.Fatalf("child usable = %d, want %d", got, before-3)
	}
	if s1.Cluster().Node(1) != s2.Cluster().Node(1) {
		t.Fatal("untouched node must be shared")
	}
	// No-op offline (already dead PUs): no new epoch.
	s3, n := s2.FailPUs(0, hw.NewCPUSet(0, 1))
	if n != 0 || s3 != s2 {
		t.Fatal("no-op FailPUs must return the receiver")
	}
}

func TestSnapshotAppendAndReplace(t *testing.T) {
	sp := specNehalem(t)
	s1 := SnapshotOf(Homogeneous(2, sp))
	spare := &Node{Name: "spare0", Topo: hw.New(sp)}

	s2 := s1.AppendNode(spare)
	if s2.NumNodes() != 3 || s1.NumNodes() != 2 {
		t.Fatalf("grow: child %d nodes, parent %d", s2.NumNodes(), s1.NumNodes())
	}
	if s2.Cluster().Node(2).Topo == spare.Topo {
		t.Fatal("appended node must be deep-copied")
	}
	if s2.Epoch() != 2 || s2.Sig() == s1.Sig() {
		t.Fatal("grow must mint a new epoch and sig")
	}

	// Changing a node in place clones only that node's topology; the
	// appended node stays shared with the parent.
	s3, n := s2.FailPUs(0, hw.NewCPUSet(0))
	if n != 1 || s3.Epoch() != 3 || s3.Sig() == s2.Sig() {
		t.Fatalf("FailPUs on node 0: changed %d, epoch %d", n, s3.Epoch())
	}
	if s3.Cluster().Node(0).Topo == s2.Cluster().Node(0).Topo ||
		s3.Cluster().Node(2) != s2.Cluster().Node(2) {
		t.Fatal("FailPUs must clone node 0 and share the others")
	}
	if s2.Cluster().Node(0).Topo.NumUsablePUs() != s3.Cluster().Node(0).Topo.NumUsablePUs()+1 {
		t.Fatal("parent mutated by FailPUs")
	}
	if s4, n := s3.FailPUs(17, hw.NewCPUSet(0)); n != 0 || s4 != s3 {
		t.Fatal("out-of-range FailPUs must return the receiver")
	}
}

func TestSnapshotSigTracksAvailabilityNotNames(t *testing.T) {
	sp := specNehalem(t)
	a := SnapshotOf(Homogeneous(2, sp))
	b := SnapshotOf(Homogeneous(2, sp))
	if a.Sig() != b.Sig() {
		t.Fatal("identical clusters must share a sig")
	}
	bFailed, _ := b.FailNode(0)
	if a.Sig() == bFailed.Sig() {
		t.Fatal("availability change must change the sig")
	}
	// Slots are placement-relevant and must be stamped.
	c := Homogeneous(2, sp)
	c.Nodes[0].Slots = 4
	if SnapshotOf(c).Sig() == a.Sig() {
		t.Fatal("slot policy must change the sig")
	}
}

// distinctTopos counts the topology trees a cluster's nodes hold.
func distinctTopos(c *Cluster) int {
	seen := map[*hw.Topology]bool{}
	for _, n := range c.Nodes {
		seen[n.Topo] = true
	}
	return len(seen)
}

// usableOS lists a node's usable PU OS indices.
func usableOS(n *Node) string {
	var os []int
	for _, pu := range n.Topo.UsablePUs() {
		os = append(os, pu.OS)
	}
	return fmt.Sprint(os)
}

func TestSnapshotOfSharesTopologies(t *testing.T) {
	sp := specNehalem(t)
	live := Homogeneous(4096, sp)
	s := SnapshotOf(live)
	if got := distinctTopos(s.Cluster()); got != 1 {
		t.Fatalf("4096-node homogeneous snapshot holds %d topologies, want 1", got)
	}
	if s.Cluster().Node(0).Topo == live.Node(0).Topo {
		t.Fatal("the snapshot must not hold the live cluster's tree")
	}

	// A node that differs from the base tree by a restriction, an
	// off-lined PU, its spec or its OS numbering gets its own tree. Nodes
	// in one state share a tree however they reached it: Restrict(0-7)
	// and Offline(8-15) leave the same PUs available. Slots are not
	// part of the topology.
	flipped := sp
	flipped.ThreadMajorOS = !sp.ThreadMajorOS
	fig2, ok := hw.Preset("fig2")
	if !ok {
		t.Fatal("preset missing")
	}
	c := FromSpecs(sp, sp, sp, sp, fig2, flipped, sp, sp, sp)
	c.Node(1).Topo.Restrict(hw.CPUSetRange(0, 7))
	c.Node(2).Topo.Offline(hw.NewCPUSet(3))
	c.Node(3).Topo.Offline(hw.CPUSetRange(8, 15))
	c.Node(7).Topo.Restrict(hw.CPUSetRange(0, 7))
	c.Node(8).Slots = 4
	s = SnapshotOf(c)
	groups := [][]int{{0, 6, 8}, {1, 3, 7}, {2}, {4}, {5}}
	if got := distinctTopos(s.Cluster()); got != len(groups) {
		t.Fatalf("snapshot holds %d topologies, want %d", got, len(groups))
	}
	for _, g := range groups {
		for _, i := range g {
			if s.Cluster().Node(i).Topo != s.Cluster().Node(g[0]).Topo {
				t.Errorf("node %d does not share node %d's tree", i, g[0])
			}
		}
	}
	for i, n := range s.Cluster().Nodes {
		if got, want := usableOS(n), usableOS(c.Node(i)); got != want {
			t.Errorf("node %d: snapshot usable PUs %s, live %s", i, got, want)
		}
		if got, want := stateKey(n), stateKey(c.Node(i)); got != want {
			t.Errorf("node %d: snapshot sig %q, live %q", i, got, want)
		}
	}
}

// TestHomogeneousSnapshotMatchesSnapshotOf holds HomogeneousSnapshot to
// the capture it replaces, SnapshotOf(Homogeneous(n, sp)): the same Sig,
// epoch, node names, slots and every node's state key, one shared tree,
// and the same again after a FailPUs derivation on each.
func TestHomogeneousSnapshotMatchesSnapshotOf(t *testing.T) {
	fig2, ok := hw.Preset("fig2")
	if !ok {
		t.Fatal("preset missing")
	}
	for _, sp := range []hw.Spec{specNehalem(t), fig2} {
		for _, n := range []int{1, 3, 64} {
			got, want := HomogeneousSnapshot(n, sp), SnapshotOf(Homogeneous(n, sp))
			if d := distinctTopos(got.Cluster()); d != 1 {
				t.Fatalf("%s × %d: %d topologies, want 1", sp, n, d)
			}
			sameSnapshot(t, fmt.Sprintf("%s × %d", sp, n), got, want)
			fail := hw.NewCPUSet(1, 2)
			got, _ = got.FailPUs(n-1, fail)
			want, _ = want.FailPUs(n-1, fail)
			sameSnapshot(t, fmt.Sprintf("%s × %d after FailPUs", sp, n), got, want)
		}
	}
}

// sameSnapshot fails unless got and want are the same snapshot node by
// node: Sig, epoch, names, slots and topology state keys.
func sameSnapshot(t *testing.T, name string, got, want *Snapshot) {
	t.Helper()
	if got.Sig() != want.Sig() || got.Epoch() != want.Epoch() || got.NumNodes() != want.NumNodes() {
		t.Fatalf("%s: sig %s epoch %d nodes %d, want %s %d %d", name,
			got.Sig(), got.Epoch(), got.NumNodes(), want.Sig(), want.Epoch(), want.NumNodes())
	}
	for i, g := range got.Cluster().Nodes {
		w := want.Cluster().Node(i)
		if g.Name != w.Name || g.Slots != w.Slots || g.MaxSlots != w.MaxSlots {
			t.Fatalf("%s: node %d is %s slots %d/%d, want %s %d/%d", name, i,
				g.Name, g.Slots, g.MaxSlots, w.Name, w.Slots, w.MaxSlots)
		}
		if string(g.Topo.AppendStateKey(nil)) != string(w.Topo.AppendStateKey(nil)) {
			t.Fatalf("%s: node %d's topology differs", name, i)
		}
	}
}

// stateKey is n's state key as a string.
func stateKey(n *Node) string { return string(n.AppendStateKey(nil)) }

// nodeState is what a derivation must leave alone on every node it does
// not touch: the tree, what it offers and its signature.
type nodeState struct {
	topo   *hw.Topology
	usable string
	sig    string
}

func nodeStates(s *Snapshot) []nodeState {
	out := make([]nodeState, s.NumNodes())
	for i, n := range s.Cluster().Nodes {
		out[i] = nodeState{n.Topo, usableOS(n), stateKey(n)}
	}
	return out
}

// TestQuickDerivationsLeaveSharersAlone: FailNode, FailPUs and AppendNode
// on a node whose tree other nodes share must leave every other node as it
// was, in the child and in the parent: the same topology pointer, usable
// PUs and state key.
func TestQuickDerivationsLeaveSharersAlone(t *testing.T) {
	sp := specNehalem(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := Homogeneous(2+r.Intn(8), sp)
		for _, n := range c.Nodes {
			if r.Intn(3) == 0 {
				n.Topo.Restrict(hw.CPUSetRange(0, 7))
			}
		}
		s := SnapshotOf(c)
		for step := 0; step < 8; step++ {
			before := nodeStates(s)
			i := r.Intn(s.NumNodes())
			var child *Snapshot
			op := "FailNode"
			switch r.Intn(3) {
			case 0:
				child, _ = s.FailNode(i)
			case 1:
				op = "FailPUs"
				child, _ = s.FailPUs(i, hw.NewCPUSet(r.Intn(16), r.Intn(16)))
			default:
				op = "AppendNode"
				child = s.AppendNode(s.Cluster().Node(i))
				i = s.NumNodes()
			}
			parent, after := nodeStates(s), nodeStates(child)
			for j := range before {
				if parent[j] != before[j] {
					t.Logf("seed %d step %d: %s on node %d changed the parent's node %d", seed, step, op, i, j)
					return false
				}
				if j != i && after[j] != before[j] {
					t.Logf("seed %d step %d: %s on node %d changed node %d", seed, step, op, i, j)
					return false
				}
			}
			s = child
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestSharedTopologyConcurrentReads reads one snapshot's shared trees from
// many goroutines at once. PUSet and RenderTree must not write into a
// tree, so under -race this test holds them to read-only.
func TestSharedTopologyConcurrentReads(t *testing.T) {
	sp := specNehalem(t)
	s := SnapshotOf(Homogeneous(64, sp))
	fresh := hw.New(sp)
	wantTree, wantRoot := fresh.RenderTree(), fresh.Root.PUSet().String()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, n := range s.Cluster().Nodes {
				for _, core := range n.Topo.Objects(hw.LevelCore) {
					if core.PUSet().Count() != len(core.Children) {
						t.Errorf("node %d %s: PUSet %s", i, core, core.PUSet())
						return
					}
				}
				if got := n.Topo.Root.PUSet().String(); got != wantRoot {
					t.Errorf("node %d: root PUSet %s, want %s", i, got, wantRoot)
					return
				}
				if got := n.Topo.RenderTree(); got != wantTree {
					t.Errorf("node %d: RenderTree differs:\n%s", i, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkSnapshotOf captures a 4096-node nehalem-ep site, the shape of
// the benchmark's dc cluster.
func BenchmarkSnapshotOf(b *testing.B) {
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		b.Fatal("preset missing")
	}
	c := Homogeneous(4096, sp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SnapshotOf(c)
	}
}

// BenchmarkHomogeneousSnapshot builds the same 4096-node site directly,
// as lamad's -clusters does.
func BenchmarkHomogeneousSnapshot(b *testing.B) {
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		b.Fatal("preset missing")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HomogeneousSnapshot(4096, sp)
	}
}
