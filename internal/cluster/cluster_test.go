package cluster

import (
	"strings"
	"testing"

	"lama/internal/hw"
)

func specNehalem(t *testing.T) hw.Spec {
	t.Helper()
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		t.Fatal("preset missing")
	}
	return sp
}

func TestHomogeneousCluster(t *testing.T) {
	c := Homogeneous(3, specNehalem(t))
	if c.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	if !c.Homogeneous() {
		t.Fatal("should be homogeneous")
	}
	if c.TotalUsablePUs() != 48 {
		t.Fatalf("usable PUs = %d", c.TotalUsablePUs())
	}
	if n, i := c.NodeByName("node1"); n == nil || i != 1 {
		t.Fatal("NodeByName failed")
	}
	if n, i := c.NodeByName("nope"); n != nil || i != -1 {
		t.Fatal("NodeByName should miss")
	}
	if c.Node(5) != nil || c.Node(-1) != nil {
		t.Fatal("out-of-range Node")
	}
	if !strings.Contains(c.Summary(), "3 nodes") {
		t.Fatalf("Summary = %q", c.Summary())
	}
}

func TestHomogeneousPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Homogeneous(0, specNehalem(t))
}

func TestHeterogeneousDetection(t *testing.T) {
	big := specNehalem(t)
	small, _ := hw.Preset("bgp-node")
	c := FromSpecs(big, small)
	if c.Homogeneous() {
		t.Fatal("different specs must be heterogeneous")
	}
	// Restriction makes a homogeneous system look heterogeneous (§III-A).
	h := Homogeneous(2, big)
	if !h.Homogeneous() {
		t.Fatal("precondition")
	}
	h.Nodes[1].Topo.Restrict(hw.CPUSetRange(0, 7))
	if h.Homogeneous() {
		t.Fatal("restricted node must make cluster heterogeneous")
	}
	// Single node always homogeneous.
	if !Homogeneous(1, big).Homogeneous() {
		t.Fatal("single node")
	}
}

func TestEffectiveSlots(t *testing.T) {
	c := Homogeneous(1, specNehalem(t)) // 8 cores
	n := c.Node(0)
	if got := n.EffectiveSlots(); got != 8 {
		t.Fatalf("default slots = %d, want cores=8", got)
	}
	n.Slots = 3
	if n.EffectiveSlots() != 3 {
		t.Fatal("explicit slots")
	}
	n.Slots = 0
	n.Topo.Restrict(hw.CPUSetRange(0, 1)) // thread-major: cores 0,1 first threads
	if got := n.EffectiveSlots(); got != 2 {
		t.Fatalf("restricted slots = %d, want 2", got)
	}
}

func TestParseHostfile(t *testing.T) {
	text := `
# two big nodes, one restricted old node
node0 slots=8 spec=nehalem-ep
node1 slots=8 spec=nehalem-ep

old0  slots=2 spec=1:4:1 allowed=0-1
plain
`
	def, _ := hw.Preset("bgp-node")
	c, err := ParseHostfile(text, def)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	if c.Nodes[0].Slots != 8 || c.Nodes[0].Topo.NumPUs() != 16 {
		t.Fatal("node0 wrong")
	}
	if c.Nodes[2].Topo.NumUsablePUs() != 2 {
		t.Fatalf("old0 usable = %d", c.Nodes[2].Topo.NumUsablePUs())
	}
	if c.Nodes[3].Topo.NumPUs() != def.TotalPUs() {
		t.Fatal("default spec not applied")
	}
}

func TestParseHostfileErrors(t *testing.T) {
	def := hw.Spec{Boards: 1, Sockets: 1, NUMAs: 1, L3s: 1, L2s: 1, L1s: 1, Cores: 1, PUs: 1}
	cases := []string{
		"",                  // no nodes
		"# only comments",   // no nodes
		"a\na",              // duplicate
		"a slots=x",         // bad slots
		"a slots=-1",        // negative slots
		"a spec=bogus~spec", // bad spec
		"a allowed=9-1",     // bad cpuset
		"a wibble=3",        // unknown field
		"a slots",           // missing =
	}
	for _, text := range cases {
		if _, err := ParseHostfile(text, def); err == nil {
			t.Errorf("ParseHostfile(%q) should fail", text)
		}
	}
}

func TestHostfileRoundTrip(t *testing.T) {
	text := "node0 slots=8 maxslots=16 spec=1:2:1:1:4:1:1:2\nnode1 slots=2 spec=1:1:1:1:4:1:1:1 allowed=0-1\n"
	def := hw.Spec{Boards: 1, Sockets: 1, NUMAs: 1, L3s: 1, L2s: 1, L1s: 1, Cores: 1, PUs: 1}
	c, err := ParseHostfile(text, def)
	if err != nil {
		t.Fatal(err)
	}
	got := FormatHostfile(c)
	c2, err := ParseHostfile(got, def)
	if err != nil {
		t.Fatalf("re-parse %q: %v", got, err)
	}
	for i, n := range c.Nodes {
		n2 := c2.Nodes[i]
		if n.Name != n2.Name || n.Slots != n2.Slots || n.MaxSlots != n2.MaxSlots ||
			n.Topo.NumPUs() != n2.Topo.NumPUs() ||
			n.Topo.NumUsablePUs() != n2.Topo.NumUsablePUs() {
			t.Fatalf("node %d round trip mismatch", i)
		}
	}
}

func TestHostfileSlotValidation(t *testing.T) {
	def := hw.Spec{Boards: 1, Sockets: 1, NUMAs: 1, L3s: 1, L2s: 1, L1s: 1, Cores: 1, PUs: 1}
	cases := []string{
		"a slots=5 spec=1:1:1:1:1:1:4:1",             // slots > 4 PUs
		"a slots=3 spec=1:1:1:1:1:1:4:1 allowed=0-1", // slots > 2 usable PUs
		"a maxslots=5 spec=1:1:1:1:1:1:4:1",          // maxslots > PUs
		"a slots=3 maxslots=2 spec=1:1:1:1:1:1:4:1",  // maxslots < slots
		"a maxslots=x",  // unparsable
		"a maxslots=-1", // negative
	}
	for _, text := range cases {
		if _, err := ParseHostfile(text, def); err == nil {
			t.Errorf("ParseHostfile(%q) should fail", text)
		}
	}
	// The boundary cases are fine: slots == usable PUs, maxslots == usable.
	c, err := ParseHostfile("a slots=2 maxslots=2 spec=1:1:1:1:1:1:4:1 allowed=0-1", def)
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes[0].Slots != 2 || c.Nodes[0].MaxSlots != 2 {
		t.Fatalf("node = %+v", c.Nodes[0])
	}
}

// TestParseNodesSpecMalformed: each malformed "<nodes>x<spec>" is refused
// with the text lamamap (-cluster) and lamad (-clusters) print.
func TestParseNodesSpecMalformed(t *testing.T) {
	for _, tc := range []struct{ in, lamamap, lamad string }{
		{"x4", `bad node count in -cluster "x4"`, `bad node count in cluster "x4"`},
		{"0xfig2", `bad node count in -cluster "0xfig2"`, `bad node count in cluster "0xfig2"`},
		{"-1xfig2", `bad node count in -cluster "-1xfig2"`, `bad node count in cluster "-1xfig2"`},
		{"4x", `hw: bad spec "": element ""`, `hw: bad spec "": element ""`},
		{"4xnope", `hw: bad spec "nope": element "nope"`, `hw: bad spec "nope": element "nope"`},
		{"4", `bad -cluster "4": want <nodes>x<spec>`, `bad cluster "4": want <nodes>x<spec>`},
	} {
		for what, want := range map[string]string{"-cluster": tc.lamamap, "cluster": tc.lamad} {
			if _, _, err := ParseNodesSpec(tc.in, what); err == nil || err.Error() != want {
				t.Errorf("ParseNodesSpec(%q, %q) = %v, want %q", tc.in, what, err, want)
			}
		}
	}
	n, sp, err := ParseNodesSpec("4xfig2", "-cluster")
	if want, _ := hw.Preset("fig2"); err != nil || n != 4 || sp != want {
		t.Fatalf("ParseNodesSpec(4xfig2) = %d, %+v, %v", n, sp, err)
	}
}
