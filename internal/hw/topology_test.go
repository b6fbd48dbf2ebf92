package hw

import (
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func nehalem(t *testing.T) *Topology {
	t.Helper()
	sp, ok := Preset("nehalem-ep")
	if !ok {
		t.Fatal("missing preset")
	}
	return New(sp)
}

func TestLevelTable(t *testing.T) {
	// Paper Table I: the nine levels and their abbreviations.
	want := map[Level]string{
		LevelMachine: "n", LevelBoard: "b", LevelSocket: "s",
		LevelCore: "c", LevelPU: "h",
		LevelL1: "L1", LevelL2: "L2", LevelL3: "L3", LevelNUMA: "N",
	}
	if len(want) != NumLevels {
		t.Fatalf("expected %d levels", NumLevels)
	}
	for l, ab := range want {
		if l.Abbrev() != ab {
			t.Errorf("%s abbrev = %q, want %q", l, l.Abbrev(), ab)
		}
		got, ok := LevelByAbbrev(ab)
		if !ok || got != l {
			t.Errorf("LevelByAbbrev(%q) = %v,%v", ab, got, ok)
		}
		byName, ok := LevelByName(l.String())
		if !ok || byName != l {
			t.Errorf("LevelByName(%q) failed", l.String())
		}
		if l.Description() == "" || l.Description() == "unknown" {
			t.Errorf("%s missing description", l)
		}
	}
	// Case sensitivity: n is node, N is NUMA.
	if l, _ := LevelByAbbrev("n"); l != LevelMachine {
		t.Error("n must be machine")
	}
	if l, _ := LevelByAbbrev("N"); l != LevelNUMA {
		t.Error("N must be NUMA")
	}
	if _, ok := LevelByAbbrev("x"); ok {
		t.Error("x must be unknown")
	}
	if Level(-1).Valid() || Level(NumLevels).Valid() {
		t.Error("Valid wrong")
	}
	if Level(-1).Abbrev() != "?" || Level(-1).Description() != "unknown" {
		t.Error("invalid level rendering")
	}
}

func TestSpecValidateAndCounts(t *testing.T) {
	sp := Spec{Boards: 1, Sockets: 2, NUMAs: 1, L3s: 1, L2s: 4, L1s: 1, Cores: 1, PUs: 2}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.TotalPUs() != 16 || sp.TotalCores() != 8 {
		t.Fatalf("TotalPUs=%d TotalCores=%d", sp.TotalPUs(), sp.TotalCores())
	}
	bad := sp
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Fatal("zero width must fail validation")
	}
	if sp.String() == "" {
		t.Fatal("empty spec string")
	}
}

func TestNewTopologyShape(t *testing.T) {
	topo := nehalem(t)
	wantCounts := map[Level]int{
		LevelMachine: 1, LevelBoard: 1, LevelSocket: 2, LevelNUMA: 2,
		LevelL3: 2, LevelL2: 8, LevelL1: 8, LevelCore: 8, LevelPU: 16,
	}
	for l, n := range wantCounts {
		if got := topo.NumObjects(l); got != n {
			t.Errorf("NumObjects(%s) = %d, want %d", l, got, n)
		}
	}
	if topo.NumPUs() != 16 || topo.NumUsablePUs() != 16 {
		t.Fatal("PU counts wrong")
	}
	// Logical indices are dense per level.
	for _, l := range Levels {
		for i, o := range topo.Objects(l) {
			if o.Logical != i {
				t.Fatalf("%s logical %d at position %d", l, o.Logical, i)
			}
			if o.Level != l {
				t.Fatalf("level mismatch")
			}
		}
	}
	// Parent/child integrity and ranks.
	for _, l := range Levels[1:] {
		for _, o := range topo.Objects(l) {
			if o.Parent == nil {
				t.Fatalf("%v has no parent", o)
			}
			if o.Parent.Children[o.Rank] != o {
				t.Fatalf("%v rank inconsistent", o)
			}
		}
	}
}

func TestThreadMajorOSNumbering(t *testing.T) {
	topo := nehalem(t) // ThreadMajorOS: true, 8 cores, 2 threads
	core0 := topo.ObjectAt(LevelCore, 0)
	got := core0.PUSet().String()
	if got != "0,8" {
		t.Fatalf("core0 PUs = %q, want \"0,8\"", got)
	}
	seq := New(Spec{Boards: 1, Sockets: 2, NUMAs: 1, L3s: 1, L2s: 4, L1s: 1, Cores: 1, PUs: 2})
	if got := seq.ObjectAt(LevelCore, 0).PUSet().String(); got != "0-1" {
		t.Fatalf("sequential core0 PUs = %q, want \"0-1\"", got)
	}
	// All OS indices distinct and dense in both numberings.
	for _, tp := range []*Topology{topo, seq} {
		seen := NewCPUSet()
		for _, pu := range tp.Objects(LevelPU) {
			if seen.Contains(pu.OS) {
				t.Fatalf("duplicate OS index %d", pu.OS)
			}
			seen.Set(pu.OS)
		}
		if !seen.Equal(CPUSetRange(0, tp.NumPUs()-1)) {
			t.Fatalf("OS indices not dense: %v", seen)
		}
	}
}

func TestObjectQueries(t *testing.T) {
	topo := nehalem(t)
	pu := topo.PUByOS(9) // thread-major: core 1, second thread
	if pu == nil {
		t.Fatal("PUByOS failed")
	}
	if pu.Ancestor(LevelCore).Logical != 1 {
		t.Fatalf("PU 9 core = %v", pu.Ancestor(LevelCore))
	}
	if pu.Ancestor(LevelSocket).Logical != 0 {
		t.Fatalf("PU 9 socket = %v", pu.Ancestor(LevelSocket))
	}
	if pu.Ancestor(LevelMachine) != topo.Root {
		t.Fatal("machine ancestor")
	}
	if topo.Root.Ancestor(LevelCore) != nil {
		t.Fatal("descending Ancestor should be nil")
	}
	if topo.ObjectAt(LevelSocket, 5) != nil || topo.ObjectAt(LevelSocket, -1) != nil {
		t.Fatal("out-of-range ObjectAt")
	}
	if topo.PUByOS(99) != nil {
		t.Fatal("unknown OS index")
	}
	if s := topo.ObjectAt(LevelSocket, 1).String(); s != "socket#1" {
		t.Fatalf("String = %q", s)
	}
	var nilObj *Object
	if nilObj.String() != "<nil>" {
		t.Fatal("nil object String")
	}
}

func TestAvailabilityAndRestrict(t *testing.T) {
	topo := nehalem(t)
	// Off-line socket 1: 8 PUs become unusable.
	if !topo.SetAvailable(LevelSocket, 1, false) {
		t.Fatal("SetAvailable failed")
	}
	if topo.NumUsablePUs() != 8 {
		t.Fatalf("usable = %d, want 8", topo.NumUsablePUs())
	}
	if topo.SetAvailable(LevelSocket, 7, false) {
		t.Fatal("SetAvailable on missing object should be false")
	}
	pu := topo.PUByOS(4) // socket 1 territory
	if pu.Usable() {
		t.Fatal("PU under offline socket must be unusable")
	}
	if got := pu.UsablePUs(); got != nil {
		t.Fatal("UsablePUs under offline ancestor must be empty")
	}
	topo.SetAvailable(LevelSocket, 1, true)

	// Scheduler restriction to PUs 0-5.
	topo.Restrict(CPUSetRange(0, 5))
	if topo.NumUsablePUs() != 6 {
		t.Fatalf("after restrict usable = %d", topo.NumUsablePUs())
	}
	if got := topo.AllowedSet().String(); got != "0-5" {
		t.Fatalf("AllowedSet = %q", got)
	}
}

func TestClone(t *testing.T) {
	topo := nehalem(t)
	topo.SetAvailable(LevelCore, 2, false)
	c := topo.Clone()
	if c.NumPUs() != topo.NumPUs() || c.NumUsablePUs() != topo.NumUsablePUs() {
		t.Fatal("clone shape mismatch")
	}
	// Mutating the clone must not affect the original.
	c.SetAvailable(LevelSocket, 0, false)
	if topo.ObjectAt(LevelSocket, 0).Available == false {
		t.Fatal("clone aliases original")
	}
	if topo.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	topo := nehalem(t)
	topo.SetAvailable(LevelCore, 5, false)
	data, err := json.Marshal(topo)
	if err != nil {
		t.Fatal(err)
	}
	var back Topology
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumPUs() != topo.NumPUs() || back.NumUsablePUs() != topo.NumUsablePUs() {
		t.Fatalf("round trip: pus %d/%d usable %d/%d",
			back.NumPUs(), topo.NumPUs(), back.NumUsablePUs(), topo.NumUsablePUs())
	}
	for _, l := range Levels {
		if back.NumObjects(l) != topo.NumObjects(l) {
			t.Fatalf("level %s count mismatch", l)
		}
	}
	// OS indices preserved.
	for i, pu := range topo.Objects(LevelPU) {
		if back.Objects(LevelPU)[i].OS != pu.OS {
			t.Fatal("OS index lost")
		}
	}
}

func TestJSONErrors(t *testing.T) {
	var tp Topology
	for _, bad := range []string{
		`{"level":"sprocket"}`,
		`{"level":"core"}`,
		`{"level":"machine","children":[{"level":"machine"}]}`,
		`{"level":"machine","children":[{"level":"pu","children":[{"level":"pu"}]}]}`,
		`{`,
	} {
		if err := json.Unmarshal([]byte(bad), &tp); err == nil {
			t.Errorf("decoding %q should fail", bad)
		}
	}
}

func TestParseSpecForms(t *testing.T) {
	sp, err := ParseSpec("nehalem-ep")
	if err != nil || sp.Sockets != 2 {
		t.Fatalf("preset parse: %v %+v", err, sp)
	}
	sp, err = ParseSpec("2:4:2")
	if err != nil || sp.Sockets != 2 || sp.Cores != 4 || sp.PUs != 2 || sp.Boards != 1 {
		t.Fatalf("short parse: %v %+v", err, sp)
	}
	sp, err = ParseSpec("2:2:1:1:4:1:1:2")
	if err != nil || sp.Boards != 2 || sp.L2s != 4 {
		t.Fatalf("full parse: %v %+v", err, sp)
	}
	for _, bad := range []string{"", "1:2", "a:b:c", "0:1:1", "1:2:3:4"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}
	if len(PresetNames()) < 5 {
		t.Fatal("expected several presets")
	}
	for _, name := range PresetNames() {
		sp, ok := Preset(name)
		if !ok {
			t.Fatalf("preset %q vanished", name)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", name, err)
		}
	}
}

// randomSpec produces a small random valid spec.
func randomSpec(r *rand.Rand) Spec {
	w := func(max int) int { return 1 + r.Intn(max) }
	return Spec{
		Boards: w(2), Sockets: w(4), NUMAs: w(2), L3s: w(2),
		L2s: w(3), L1s: w(2), Cores: w(3), PUs: w(4),
		ThreadMajorOS: r.Intn(2) == 1,
	}
}

func TestQuickTopologyInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sp := randomSpec(r)
		topo := New(sp)
		// PU count matches spec product.
		if topo.NumPUs() != sp.TotalPUs() {
			return false
		}
		// Level counts multiply down the tree.
		w := sp.widths()
		want := 1
		for d := 0; d < NumLevels; d++ {
			want *= w[d]
			if topo.NumObjects(Level(d)) != want {
				return false
			}
		}
		// Every PU OS index unique and in range; PUSet of root is full.
		if !topo.Root.PUSet().Equal(CPUSetRange(0, topo.NumPUs()-1)) {
			return false
		}
		// JSON round trip preserves shape.
		data, err := json.Marshal(topo)
		if err != nil {
			return false
		}
		var back Topology
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		if back.NumPUs() != topo.NumPUs() || !sameUsable(topo) || !sameUsable(&back) {
			return false
		}
		// Every mutator, and Clone, leaves the topology's usable-PU list
		// equal to the tree walk it replaces on the read path, and its
		// hierarchy table agreeing with the ancestor-chain oracle.
		for step := 0; step < 8; step++ {
			switch r.Intn(6) {
			case 0:
				l := Level(r.Intn(NumLevels))
				topo.SetAvailable(l, r.Intn(topo.NumObjects(l)+1), r.Intn(3) == 0)
			case 1:
				topo.Restrict(randomSet(r, topo.NumPUs()+1))
			case 2:
				topo.Offline(randomSet(r, topo.NumPUs()+1))
			case 3:
				l := Level(1 + r.Intn(NumLevels-1))
				topo = withoutObject(topo, l, r.Intn(topo.NumObjects(l)+1))
			case 4:
				topo = topo.Clone()
			case 5:
				data, err := json.Marshal(topo)
				if err != nil {
					return false
				}
				topo = &Topology{}
				if err := json.Unmarshal(data, topo); err != nil {
					return false
				}
			}
			if !sameUsable(topo) || topo.NumUsablePUs() != len(topo.Root.UsablePUs()) || checkHierarchy(topo) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// sameUsable reports whether the topology's usable-PU list holds exactly
// the objects, in the order, that walking the tree from Root finds,
// whether every object's window of it holds what walking from the object
// finds, and whether its thread-major list and rounds deal the cores'
// usable PUs out thread by thread.
func sameUsable(t *Topology) bool {
	if !slices.Equal(t.UsablePUs(), t.Root.UsablePUs()) {
		return false
	}
	for _, objs := range t.byLevel {
		for _, o := range objs {
			if !slices.Equal(t.UsableUnder(o), o.UsablePUs()) {
				return false
			}
		}
	}
	var cores [][]*Object // every core's usable PUs, in core order
	for _, c := range t.Objects(LevelCore) {
		cores = append(cores, c.UsablePUs())
	}
	var all []*Object
	for r := 0; ; r++ {
		var round []*Object
		for _, pus := range cores {
			if r < len(pus) {
				round = append(round, pus[r])
			}
		}
		if !slices.Equal(t.ThreadRound(r), round) {
			return false
		}
		if len(round) == 0 {
			return slices.Equal(t.ThreadMajorPUs(), all)
		}
		all = append(all, round...)
	}
}

func TestQuickRestrictMonotone(t *testing.T) {
	// Restricting can only shrink the usable set, and AllowedSet is always
	// a subset of the restriction mask.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		topo := New(randomSpec(r))
		before := topo.NumUsablePUs()
		mask := randomSet(r, topo.NumPUs())
		topo.Restrict(mask)
		after := topo.NumUsablePUs()
		return after <= before && topo.AllowedSet().IsSubset(mask)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRenderTree(t *testing.T) {
	topo := nehalem(t)
	topo.SetAvailable(LevelCore, 1, false)
	out := topo.RenderTree()
	for _, want := range []string{"machine#0", "socket#1", "core#0 (pus 0,8)", "core#1", "[offline]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("RenderTree missing %q:\n%s", want, out)
		}
	}
	// Restricted PUs show a usable subset.
	topo2 := nehalem(t)
	topo2.Restrict(CPUSetRange(0, 7))
	out2 := topo2.RenderTree()
	if !strings.Contains(out2, "[usable") {
		t.Fatalf("restricted render:\n%s", out2)
	}
}

// TestShapeSigSetWithStructure: the signature is fixed when the tree is
// built or restructured, so readers on several goroutines (one sweep's
// workers pricing and mapping the same cluster) only read it; under
// -race a signature memoized on first read fails here. It tracks the
// structure: a clone and a JSON round trip keep it, availability leaves
// it alone, removing an object changes it.
func TestShapeSigSetWithStructure(t *testing.T) {
	topo := nehalem(t)
	want := topo.structureSig()
	sigs := make(chan string, 4)
	for i := 0; i < cap(sigs); i++ {
		go func() { sigs <- topo.ShapeSig() }()
	}
	for i := 0; i < cap(sigs); i++ {
		if got := <-sigs; got != want {
			t.Fatalf("concurrent ShapeSig = %q, want %q", got, want)
		}
	}
	topo.SetAvailable(LevelCore, 2, false)
	if topo.ShapeSig() != want || topo.Clone().ShapeSig() != want {
		t.Fatal("availability or a clone changed the signature")
	}
	data, err := json.Marshal(topo)
	if err != nil {
		t.Fatal(err)
	}
	var back Topology
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ShapeSig() != want {
		t.Fatal("JSON round trip changed the signature")
	}
	cut := withoutObject(topo, LevelCore, 3)
	if got := cut.ShapeSig(); got == want || got != cut.structureSig() {
		t.Fatalf("without core 3: ShapeSig = %q, structure %q", got, cut.structureSig())
	}
}

// withoutObject decodes t's wire form with the object at (level, logical)
// and its subtree left out: a ragged tree, built the way every irregular
// tree is. Without such an object it is a plain JSON round trip.
func withoutObject(t *Topology, level Level, logical int) *Topology {
	cut := t.ObjectAt(level, logical)
	var dto func(o *Object) objectDTO
	dto = func(o *Object) objectDTO {
		d := toDTO(&Object{Level: o.Level, OS: o.OS, Available: o.Available})
		for _, c := range o.Children {
			if c != cut {
				d.Children = append(d.Children, dto(c))
			}
		}
		return d
	}
	data, err := json.Marshal(dto(t.Root))
	if err != nil {
		panic(err)
	}
	out := &Topology{}
	if err := out.UnmarshalJSON(data); err != nil {
		panic(err)
	}
	return out
}

// TestObjectSize pins hw.Object at 72 bytes, which the allocator serves
// from its 80-byte size class. lamad builds every node of the clusters it
// serves at start-up, and each nehalem-ep node is dozens of objects, so
// one more field on Object (a per-object cache, say) raises the daemon's
// peak RSS by megabytes. Per-topology derived state, such as the
// usable-PU list, lives on Topology instead. A change that resizes Object
// must change this pin, visibly.
func TestObjectSize(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got != 72 {
		t.Fatalf("unsafe.Sizeof(Object{}) = %d, want 72", got)
	}
}
