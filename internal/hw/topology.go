package hw

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Spec declares a regular single-node topology by the number of children
// each object has at every containment depth. A width of 1 makes the level
// structurally transparent (present but trivial), which is how
// architectures that lack a level (e.g. no L3) are expressed.
type Spec struct {
	Boards  int // boards per machine
	Sockets int // sockets per board
	NUMAs   int // NUMA domains per socket
	L3s     int // L3 caches per NUMA domain
	L2s     int // L2 caches per L3
	L1s     int // L1 caches per L2
	Cores   int // cores per L1
	PUs     int // hardware threads per core

	// ThreadMajorOS, when true, numbers PU OS indices thread-major the way
	// Linux often does (all first hyperthreads 0..C-1, then all second
	// hyperthreads C..2C-1). When false, PUs are numbered sequentially in
	// tree order (core 0 holds PUs 0..T-1).
	ThreadMajorOS bool
}

// widths returns the per-level child widths indexed by Level depth.
// Index 0 (machine) is unused and set to 1.
func (sp Spec) widths() [NumLevels]int {
	return [NumLevels]int{
		1, sp.Boards, sp.Sockets, sp.NUMAs, sp.L3s, sp.L2s, sp.L1s, sp.Cores, sp.PUs,
	}
}

// MaxSpecPUs bounds how many PUs one spec-built machine may declare
// (2^20, far beyond real hardware). Validate enforces it with an
// overflow-safe running product, so parse surfaces fed hostile widths
// ("9999999:9999999:...") fail with an error instead of attempting a
// multi-gigabyte tree build — or silently overflowing TotalPUs.
const MaxSpecPUs = 1 << 20

// Validate checks that all widths are at least 1 and that the machine
// stays within MaxSpecPUs total PUs.
func (sp Spec) Validate() error {
	w := sp.widths()
	n := 1
	for d := 1; d < NumLevels; d++ {
		if w[d] < 1 {
			return fmt.Errorf("hw: spec has non-positive width %d for %s", w[d], Level(d))
		}
		if w[d] > MaxSpecPUs/n {
			return fmt.Errorf("hw: spec describes more than %d PUs", MaxSpecPUs)
		}
		n *= w[d]
	}
	return nil
}

// TotalPUs returns the number of PUs a machine built from the spec has.
func (sp Spec) TotalPUs() int {
	n := 1
	for _, w := range sp.widths() {
		n *= w
	}
	return n
}

// TotalCores returns the number of cores a machine built from the spec has.
func (sp Spec) TotalCores() int { return sp.TotalPUs() / sp.PUs }

// String renders the spec compactly, e.g. "1b x 2s x 1N x 1L3 x 4L2 x 1L1 x 1c x 2h".
func (sp Spec) String() string {
	w := sp.widths()
	parts := make([]string, 0, NumLevels-1)
	for d := 1; d < NumLevels; d++ {
		parts = append(parts, fmt.Sprintf("%d%s", w[d], Level(d).Abbrev()))
	}
	return strings.Join(parts, " x ")
}

// Topology is a single node's hardware tree plus per-level indexes.
//
// Mutation is a build-time act (paper §III-A: availability is a fact of
// the grant, fixed when the job launches). Mutations go through Topology
// methods (SetAvailable, Restrict, Offline, UnmarshalJSON) until the
// topology is frozen, which happens when something first caches against
// it: a mapper's dense tree (internal/core) or a cluster.Snapshot.
// Calling a mutator on a frozen topology is a programming error and
// panics; Clone returns a mutable copy. Writing Object.Available directly
// bypasses the check, and lamavet's snapfrozen analyzer reports it.
type Topology struct {
	// Root is the machine object.
	Root *Object

	byLevel [NumLevels][]*Object

	// frozen is set by Freeze and never cleared; see Freeze.
	frozen bool
	// hier is the structural table, built by New and reindex and shared
	// by clones; see Hierarchy.
	hier *Hierarchy
	// usable is the usable PUs in DFS order, set by every mutator as its
	// last step and never on read; see UsablePUs.
	usable []*Object
	// usableSpan[l][i] is the window of usable that holds the usable PUs
	// under the object of level l and logical index i, set with usable.
	// See UsableUnder.
	usableSpan [NumLevels][][2]int32
	// threadMajor is the usable PUs that sit on a core in thread-major
	// order, and roundEnds[r] the end of its thread round r; both are set
	// with usable. See ThreadMajorPUs.
	threadMajor []*Object
	roundEnds   []int
}

// Freeze makes the topology immutable: every later call to one of its
// mutators panics. Holders of derived data (a mapper's dense tree,
// snapshots) freeze a topology before they cache against it, so what they
// derived can never go stale. Freezing is idempotent. It is not
// synchronized: concurrent freezers must hold a common lock, as the
// mapper's shape cache does.
//
//lama:mutator
func (t *Topology) Freeze() { t.frozen = true }

// mustMutate panics when t is frozen. Every mutator calls it before it
// changes anything.
func (t *Topology) mustMutate(op string) {
	if t.frozen {
		panic("hw: " + op + " on a frozen topology; mutate a Clone instead")
	}
}

// New builds a regular topology tree from the spec. It panics if the spec
// is invalid (programmer error); use Spec.Validate to check first.
//
//lama:mutator
func New(sp Spec) *Topology {
	if err := sp.Validate(); err != nil {
		panic(err)
	}
	widths, cores := sp.widths(), sp.TotalCores()
	var built [NumLevels]int // objects built so far, by level
	var build func(level Level, parent *Object) *Object
	build = func(level Level, parent *Object) *Object {
		o := &Object{Level: level, OS: -1, Parent: parent, Available: true}
		if level == LevelPU {
			// Sequential OS numbering follows tree order; thread-major
			// numbers thread r of core c as r·cores + c.
			o.OS = built[LevelPU]
			if sp.ThreadMajorOS {
				o.OS = built[LevelPU]%sp.PUs*cores + built[LevelCore] - 1
			}
		}
		built[level]++
		if level < LevelPU {
			o.Children = make([]*Object, widths[level+1])
			for i := range o.Children {
				o.Children[i] = build(level+1, o)
			}
		}
		return o
	}
	t := &Topology{}
	if err := t.reindex(build(LevelMachine, nil)); err != nil {
		panic(err) // a valid spec numbers its PUs densely in at most 28 bits
	}
	return t
}

// refreshUsable recomputes the usable-PU list, every object's window of
// it, and its thread-major order after a mutation. When every PU is
// usable, which is how every spec-built node starts, the usable list is
// the PU index itself: no copy. Otherwise it is a fresh slice, and so are
// the windows and the thread-major list always, so a list handed out
// before the mutation is never rewritten.
//
//lama:mutator
func (t *Topology) refreshUsable() {
	n := 0
	for _, objs := range t.byLevel {
		n += len(objs)
	}
	spans := make([][2]int32, n)
	for l, objs := range t.byLevel {
		t.usableSpan[l], spans = spans[:len(objs):len(objs)], spans[len(objs):]
	}
	k := t.spanUsable(t.Root, true, 0)
	pus := t.byLevel[LevelPU]
	if k == len(pus) {
		t.usable = pus[:k:k]
	} else {
		usable := make([]*Object, 0, k)
		for _, pu := range pus {
			if s := t.usableSpan[LevelPU][pu.Logical]; s[0] < s[1] {
				usable = append(usable, pu)
			}
		}
		t.usable = usable
	}
	t.threadMajor, t.roundEnds = t.threadMajorOrder()
}

// spanUsable sets the usable-PU window of every object in o's subtree,
// given whether o's ancestors are all available and that k usable PUs
// precede o in DFS order, and returns the count after o's subtree. A PU's
// own window holds the PU exactly when it is usable.
//
//lama:mutator
func (t *Topology) spanUsable(o *Object, avail bool, k int) int {
	start := k
	if avail = avail && o.Available; avail && o.Level == LevelPU {
		k++
	}
	for _, c := range o.Children {
		k = t.spanUsable(c, avail, k)
	}
	t.usableSpan[o.Level][o.Logical] = [2]int32{int32(start), int32(k)}
	return k
}

// threadMajorOrder deals the cores' usable PUs out thread round by thread
// round: round r is usable hardware thread r of every core, in core
// order. PUs that do not sit on a core (decoded trees may omit the level)
// are in no round. Rounds are ragged only when cores differ in usable
// thread count.
func (t *Topology) threadMajorOrder() (order []*Object, ends []int) {
	cores := t.byLevel[LevelCore]
	n, rounds := 0, 0
	for _, c := range cores {
		w := len(t.UsableUnder(c))
		n, rounds = n+w, max(rounds, w)
	}
	order = make([]*Object, 0, n)
	ends = make([]int, rounds)
	for r := range ends {
		for _, c := range cores {
			if w := t.UsableUnder(c); r < len(w) {
				order = append(order, w[r])
			}
		}
		ends[r] = len(order)
	}
	return order, ends
}

// Objects returns all objects at the given level in logical order. The
// returned slice must not be modified.
func (t *Topology) Objects(level Level) []*Object { return t.byLevel[level] }

// NumObjects returns the number of objects at the given level.
func (t *Topology) NumObjects(level Level) int { return len(t.byLevel[level]) }

// NumPUs returns the total number of PUs (available or not).
func (t *Topology) NumPUs() int { return len(t.byLevel[LevelPU]) }

// UsablePUs returns the PUs whose ancestor chain is available, in DFS
// order: exactly what Root.UsablePUs() yields, without walking the tree.
// The list is shared and read-only; mutators replace it, never rewrite it,
// so readers of a published snapshot do not race.
func (t *Topology) UsablePUs() []*Object { return t.usable }

// ThreadMajorPUs returns the usable PUs that sit on a core in the
// conventional thread-major slot order: the first hardware thread of
// every core, then every second thread, and so on, in core order. Like
// UsablePUs it is computed by the mutators, never on read, and is shared
// and read-only.
func (t *Topology) ThreadMajorPUs() []*Object { return t.threadMajor }

// ThreadRound returns round r of ThreadMajorPUs: usable hardware thread r
// of every core, in core order. It is empty for r past the last round.
func (t *Topology) ThreadRound(r int) []*Object {
	if r >= len(t.roundEnds) {
		return nil
	}
	start := 0
	if r > 0 {
		start = t.roundEnds[r-1]
	}
	return t.threadMajor[start:t.roundEnds[r]:t.roundEnds[r]]
}

// NumUsablePUs returns the number of PUs whose ancestor chain is available.
func (t *Topology) NumUsablePUs() int { return len(t.usable) }

// UsableUnder returns the usable PUs in o's subtree, in DFS order: exactly
// what o.UsablePUs() yields, read as a window of UsablePUs without walking
// the tree. o must be an object of t. Like UsablePUs the window is shared
// and read-only.
//
//lama:hotpath
func (t *Topology) UsableUnder(o *Object) []*Object {
	return t.UsableAt(o.Level, o.Logical)
}

// UsableAt is UsableUnder of the object with the given level and logical
// index, read without the object: the mapper's per-coordinate
// availability check. The object must exist.
//
//lama:hotpath
func (t *Topology) UsableAt(level Level, logical int) []*Object {
	s := t.usableSpan[level][logical]
	return t.usable[s[0]:s[1]:s[1]]
}

// ObjectAt returns the object with the given machine-wide logical index at
// a level, or nil if out of range.
func (t *Topology) ObjectAt(level Level, logical int) *Object {
	objs := t.byLevel[level]
	if logical < 0 || logical >= len(objs) {
		return nil
	}
	return objs[logical]
}

// PUByOS returns the PU object with the given OS index, or nil.
func (t *Topology) PUByOS(os int) *Object {
	if i := t.hier.Ordinal(os); i >= 0 {
		return t.byLevel[LevelPU][i]
	}
	return nil
}

// Hierarchy returns the topology's structural table: PU ordinals by OS
// index and the level at which two PUs meet.
func (t *Topology) Hierarchy() *Hierarchy { return t.hier }

// MaxChildren returns the largest number of children any object at the
// given level has (0 for PUs). This is the per-level width used when
// assembling a maximal tree.
func (t *Topology) MaxChildren(level Level) int {
	max := 0
	for _, o := range t.byLevel[level] {
		if len(o.Children) > max {
			max = len(o.Children)
		}
	}
	return max
}

// SetAvailable marks the object at (level, logical) available or not.
// It returns false if no such object exists.
//
//lama:mutator
func (t *Topology) SetAvailable(level Level, logical int, avail bool) bool {
	t.mustMutate("SetAvailable")
	o := t.ObjectAt(level, logical)
	if o == nil {
		return false
	}
	o.Available = avail
	t.refreshUsable()
	return true
}

// Restrict marks unavailable every PU whose OS index is outside allowed,
// simulating a scheduler or cgroup restriction (paper §III-A). Interior
// objects are left available; they become effectively unusable when all of
// their PUs are disallowed.
//
//lama:mutator
func (t *Topology) Restrict(allowed *CPUSet) {
	t.mustMutate("Restrict")
	for _, pu := range t.byLevel[LevelPU] {
		if !allowed.Contains(pu.OS) {
			pu.Available = false
		}
	}
	t.refreshUsable()
}

// Offline marks the PUs with the given OS indices unavailable — the
// inverse selection of Restrict, used for partial failures (a dead core's
// threads). It returns the number of PUs that changed from available to
// unavailable.
//
//lama:mutator
func (t *Topology) Offline(pus *CPUSet) int {
	t.mustMutate("Offline")
	if pus == nil {
		return 0
	}
	changed := 0
	for _, pu := range t.byLevel[LevelPU] {
		if pus.Contains(pu.OS) && pu.Available {
			pu.Available = false
			changed++
		}
	}
	if changed > 0 {
		t.refreshUsable()
	}
	return changed
}

// AllowedSet returns the CPUSet of usable PU OS indices.
func (t *Topology) AllowedSet() *CPUSet {
	s := &CPUSet{}
	s.SetPUs(t.usable)
	return s
}

// reindex makes root t's root and builds the per-level indexes, logical
// numbers, sibling ranks, hierarchy table and usable-PU list for it: the
// last step of New and UnmarshalJSON. It fails, leaving t as it was, when
// newHierarchy rejects the tree. The indexes are built into fresh slices,
// so the old usable-PU list, which may alias the old PU index, is left
// intact.
//
//lama:mutator
func (t *Topology) reindex(root *Object) error {
	n := Topology{Root: root}
	var walk func(o *Object, rank int)
	walk = func(o *Object, rank int) {
		o.Rank = rank
		o.Logical = len(n.byLevel[o.Level])
		n.byLevel[o.Level] = append(n.byLevel[o.Level], o)
		for i, c := range o.Children {
			walk(c, i)
		}
	}
	walk(root, 0)
	h, err := n.newHierarchy()
	if err != nil {
		return err
	}
	t.Root, t.byLevel, t.hier = root, n.byLevel, h
	t.refreshUsable()
	return nil
}

// Clone returns a deep copy of the topology (objects, availability,
// numbering). The clone is never frozen: nothing has cached against it
// yet, so it may be mutated whether or not t is frozen.
//
//lama:mutator
//lama:cow Topology
//lama:cow Object
func (t *Topology) Clone() *Topology {
	c := &Topology{}
	c.frozen = false // not copied: nothing caches against c yet
	var copyObj func(o *Object, parent *Object) *Object
	copyObj = func(o *Object, parent *Object) *Object {
		n := &Object{
			Level:     o.Level,
			Logical:   o.Logical,
			Rank:      o.Rank,
			OS:        o.OS,
			Parent:    parent,
			Available: o.Available,
		}
		c.byLevel[n.Level] = append(c.byLevel[n.Level], n)
		n.Children = make([]*Object, len(o.Children))
		for i, ch := range o.Children {
			n.Children[i] = copyObj(ch, n)
		}
		return n
	}
	c.Root = copyObj(t.Root, nil)
	c.hier = t.hier // structural and immutable: shared, not copied
	// Excluded from the copy: they hold t's objects; rebuilt below.
	c.usable, c.threadMajor, c.roundEnds = nil, nil, nil
	c.usableSpan = [NumLevels][][2]int32{}
	c.refreshUsable()
	return c
}

// ShapeSig returns a signature of the topology's structure: the levels and
// child counts of the tree in DFS order, ignoring availability. Two
// topologies with equal signatures are structurally identical, so derived
// availability-independent data (pruned iteration trees) can be shared
// between them — the nodes of a homogeneous cluster all report the same
// signature. It is computed when the structure is built, never on read,
// so concurrent readers (the workers of one sweep) do not race.
func (t *Topology) ShapeSig() string { return t.hier.shapeSig }

// AppendStateKey appends to dst a key that two topologies share exactly
// when they are interchangeable: the same structure (ShapeSig), the same
// OS index and the same availability on every object. Nothing read from
// such a tree — a mapping, a binding, a rendering — tells the two apart,
// so frozen copies of them may be one tree. Appending lets a caller key
// many topologies through one reused buffer.
func (t *Topology) AppendStateKey(dst []byte) []byte {
	dst = append(dst, t.hier.shapeSig...)
	for _, objs := range t.byLevel {
		for _, o := range objs {
			avail := int64(0)
			if o.Available {
				avail = 1
			}
			// 2·OS+avail encodes the (OS, availability) pair one-to-one.
			dst = binary.AppendVarint(dst, 2*int64(o.OS)+avail)
		}
	}
	return dst
}

// structureSig walks the tree for ShapeSig.
func (t *Topology) structureSig() string {
	var sig []byte
	var walk func(o *Object)
	walk = func(o *Object) {
		sig = append(sig, byte(o.Level), byte(len(o.Children)>>8), byte(len(o.Children)))
		for _, c := range o.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return string(sig)
}

// Summary renders a one-line shape summary such as
// "2 sockets, 8 cores, 16 PUs (14 usable)".
func (t *Topology) Summary() string {
	return fmt.Sprintf("%d boards, %d sockets, %d numas, %d cores, %d PUs (%d usable)",
		t.NumObjects(LevelBoard), t.NumObjects(LevelSocket), t.NumObjects(LevelNUMA),
		t.NumObjects(LevelCore), t.NumPUs(), t.NumUsablePUs())
}
