package hw

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// lcaOracle climbs two PUs' ancestor chains to the object where they meet
// and returns its level: the walk the hierarchy table replaces.
func lcaOracle(a, b *Object) Level {
	for a != b {
		if a.Level >= b.Level {
			a = a.Parent
		} else {
			b = b.Parent
		}
	}
	return a.Level
}

// puByOSScan finds the PU with OS index os by scanning every PU.
func puByOSScan(t *Topology, os int) *Object {
	for _, pu := range t.Objects(LevelPU) {
		if pu.OS == os {
			return pu
		}
	}
	return nil
}

// lcaByOS is the level where the PUs with OS indices a and b meet, read
// from the table: LevelMachine when either PU is missing.
func lcaByOS(t *Topology, a, b int) Level {
	h := t.Hierarchy()
	if i, j := h.Ordinal(a), h.Ordinal(b); i >= 0 && j >= 0 {
		return h.LCALevel(i, j)
	}
	return LevelMachine
}

// checkHierarchy holds t's table to the oracles: every PU pair's LCALevel
// to the ancestor-chain walk, and PUByOS to a scan for every OS index in
// [-1, maxOS+2].
func checkHierarchy(t *Topology) error {
	pus := t.Objects(LevelPU)
	maxOS := -1
	for i, a := range pus {
		maxOS = max(maxOS, a.OS)
		for j, b := range pus {
			if got, want := t.Hierarchy().LCALevel(i, j), lcaOracle(a, b); got != want {
				return fmt.Errorf("LCALevel(%d, %d) = %s, oracle %s", i, j, got, want)
			}
		}
	}
	for os := -1; os <= maxOS+2; os++ {
		if got, want := t.PUByOS(os), puByOSScan(t, os); got != want {
			return fmt.Errorf("PUByOS(%d) = %v, scan %v", os, got, want)
		}
	}
	return nil
}

func TestLCALevel(t *testing.T) {
	topo := nehalem(t) // thread-major: PUs k and k+8 share a core
	cases := []struct {
		a, b int
		want Level
	}{
		{0, 0, LevelPU},
		{0, 8, LevelCore},  // same core, two threads
		{0, 1, LevelL3},    // neighbor cores share L3 (L2/L1 private)
		{0, 4, LevelBoard}, // different sockets: LCA is the board
		{0, 99, LevelMachine},
	}
	for _, c := range cases {
		if got := lcaByOS(topo, c.a, c.b); got != c.want {
			t.Errorf("LCA(%d,%d) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	if err := checkHierarchy(topo); err != nil {
		t.Fatal(err)
	}
}

// randomDecoded builds a random irregular tree as JSON and decodes it:
// every child sits at a random level below its parent, so levels are
// omitted, widths are ragged, and some objects hold no PU. PU OS indices
// are distinct but shuffled and sparse.
func randomDecoded(r *rand.Rand) *Topology {
	pus := 0
	var obj func(l Level, depth int) objectDTO
	obj = func(l Level, depth int) objectDTO {
		d := objectDTO{Level: l.String()}
		if l == LevelPU {
			pus++
			return d
		}
		for k := r.Intn(5); k > 0; k-- {
			next := LevelPU
			if depth < 4 && r.Intn(3) != 0 {
				next = l + 1 + Level(r.Intn(int(LevelPU-l)))
			}
			d.Children = append(d.Children, obj(next, depth+1))
		}
		return d
	}
	root := obj(LevelMachine, 0)
	perm := r.Perm(3 * pus)
	var number func(d *objectDTO)
	number = func(d *objectDTO) {
		if d.Level == LevelPU.String() {
			d.OS, perm = perm[0], perm[1:]
		}
		for i := range d.Children {
			number(&d.Children[i])
		}
	}
	number(&root)
	data, err := json.Marshal(root)
	if err != nil {
		panic(err)
	}
	topo := &Topology{}
	if err := topo.UnmarshalJSON(data); err != nil {
		panic(err)
	}
	return topo
}

// TestQuickHierarchy holds the table to its oracles on spec-built and
// decoded irregular trees, each decoded again with an object cut out, and
// on clones. A clone shares its source's table.
func TestQuickHierarchy(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		topo := randomDecoded(r)
		if r.Intn(3) == 0 {
			topo = New(randomSpec(r))
		}
		for step := 0; step < 6; step++ {
			if err := checkHierarchy(topo); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
			c := topo.Clone()
			if c.Hierarchy() != topo.Hierarchy() {
				t.Logf("seed %d: Clone copied the table", seed)
				return false
			}
			l := Level(1 + r.Intn(NumLevels-1))
			topo = withoutObject(c, l, r.Intn(c.NumObjects(l)+1))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPUByOS compares the OS index lookup with a scan on a thread-major
// preset, a decoded irregular tree, and both decoded again without one PU.
func TestPUByOS(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	irregular := randomDecoded(r)
	for irregular.NumPUs() < 4 {
		irregular = randomDecoded(r)
	}
	for name, topo := range map[string]*Topology{"nehalem-ep": nehalem(t), "decoded": irregular} {
		if err := checkHierarchy(topo); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cut := withoutObject(topo, LevelPU, topo.NumPUs()/2)
		if cut.NumPUs() != topo.NumPUs()-1 {
			t.Fatalf("%s: cut %d of %d PUs", name, topo.NumPUs()-cut.NumPUs(), topo.NumPUs())
		}
		if err := checkHierarchy(cut); err != nil {
			t.Fatalf("%s without one PU: %v", name, err)
		}
	}
}

// TestJSONRejectsBadHierarchy: a decoded tree whose PU OS indices are
// negative, repeated or too large, or whose path code needs more than 64
// bits, is an error, never a panic, and leaves the topology as it was.
func TestJSONRejectsBadHierarchy(t *testing.T) {
	// Eight levels of 257 children each need 8 × 9 = 72 bits.
	var wide strings.Builder
	for l := LevelMachine; l < LevelPU; l++ {
		fmt.Fprintf(&wide, `{"level":%q,"children":[`, l)
		for k := 1; k < 257; k++ {
			fmt.Fprintf(&wide, `{"level":"pu","os":%d},`, int(l)*257+k)
		}
	}
	wide.WriteString(`{"level":"pu","os":0}`)
	wide.WriteString(strings.Repeat("]}", int(LevelPU)))
	for _, c := range []struct{ name, json, err string }{
		{"negative OS", `{"level":"machine","children":[{"level":"pu","os":-3},{"level":"pu","os":1}]}`, "OS index -3 outside"},
		{"duplicate OS", `{"level":"machine","children":[{"level":"pu","os":2},{"level":"pu","os":2}]}`, "OS index 2 appears twice"},
		{"OS too large", fmt.Sprintf(`{"level":"machine","children":[{"level":"pu","os":%d}]}`, MaxSpecPUs), "outside [0, 1048576)"},
		{"72-bit code", wide.String(), "72-bit PU path code"},
	} {
		topo := nehalem(t)
		sig := topo.ShapeSig()
		if err := json.Unmarshal([]byte(c.json), topo); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.err)
		}
		if topo.ShapeSig() != sig || topo.NumPUs() != 16 || checkHierarchy(topo) != nil {
			t.Errorf("%s: the failed decode changed the topology", c.name)
		}
	}
}

// FuzzTopologyJSON: any input either fails to decode or decodes to a
// tree whose table agrees with the oracles.
func FuzzTopologyJSON(f *testing.F) {
	for _, seed := range []string{
		`{"level":"machine","children":[{"level":"pu","os":-3},{"level":"pu","os":1}]}`,
		`{"level":"machine","children":[{"level":"socket","children":[{"level":"pu","os":4},{"level":"core","children":[{"level":"pu","os":0}]}]},{"level":"pu","os":9}]}`,
		`{"level":"machine","children":[{"level":"l2"},{"level":"numa","children":[{"level":"pu","os":1,"available":false}]}]}`,
	} {
		f.Add([]byte(seed))
	}
	sp, _ := Preset("nehalem-ep")
	neh, _ := json.Marshal(New(sp))
	f.Add(neh)
	f.Fuzz(func(t *testing.T, data []byte) {
		var topo Topology
		if err := json.Unmarshal(data, &topo); err != nil {
			return
		}
		if topo.NumPUs() > 512 {
			return // the pair oracle is quadratic
		}
		if err := checkHierarchy(&topo); err != nil {
			t.Fatal(err)
		}
	})
}
