// Package hw provides a synthetic hardware-topology substrate modeled after
// the subset of hwloc that the LAMA mapping algorithm consumes: trees of
// hardware objects (machine, board, socket, NUMA node, caches, core,
// hardware thread), logical and physical numbering, availability masks, and
// CPU-set bitmaps.
//
// The package is a simulation substrate: topologies are built from
// declarative specs or vendor-like presets rather than discovered from the
// running machine, which lets tests and experiments exercise homogeneous,
// heterogeneous, irregular, and restricted systems deterministically.
package hw

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// wordBits is the number of bits per CPUSet word.
const wordBits = 64

// CPUSet is a bitmap over processing-unit (PU) physical indices, analogous
// to an hwloc bitmap or a Linux cpuset mask. The zero value is an empty set.
type CPUSet struct {
	words []uint64
}

// NewCPUSet returns a set containing the given PU indices.
func NewCPUSet(pus ...int) *CPUSet {
	s := &CPUSet{}
	for _, pu := range pus {
		s.Set(pu)
	}
	return s
}

// CPUSetRange returns the set {lo, lo+1, ..., hi}. It panics if lo > hi or
// lo < 0.
func CPUSetRange(lo, hi int) *CPUSet {
	if lo < 0 || lo > hi {
		panic(fmt.Sprintf("hw: invalid cpuset range %d-%d", lo, hi))
	}
	s := &CPUSet{}
	for i := lo; i <= hi; i++ {
		s.Set(i)
	}
	return s
}

func (s *CPUSet) grow(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Set adds pu to the set. Negative indices panic.
func (s *CPUSet) Set(pu int) {
	if pu < 0 {
		panic("hw: negative PU index")
	}
	w := pu / wordBits
	s.grow(w)
	s.words[w] |= 1 << uint(pu%wordBits)
}

// SetPUs adds the OS index of every PU in pus to the set.
func (s *CPUSet) SetPUs(pus []*Object) {
	for _, pu := range pus {
		s.Set(pu.OS)
	}
}

// Contains reports whether pu is in the set.
func (s *CPUSet) Contains(pu int) bool {
	if s == nil || pu < 0 {
		return false
	}
	w := pu / wordBits
	return w < len(s.words) && s.words[w]&(1<<uint(pu%wordBits)) != 0
}

// Count returns the number of PUs in the set.
func (s *CPUSet) Count() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set contains no PUs.
func (s *CPUSet) Empty() bool { return s.Count() == 0 }

// Clone returns a copy of the set. Clone of nil is an empty set.
func (s *CPUSet) Clone() *CPUSet {
	c := &CPUSet{}
	if s != nil {
		c.words = append([]uint64(nil), s.words...)
	}
	return c
}

// Or sets s to the union of s and o.
func (s *CPUSet) Or(o *CPUSet) {
	if o == nil {
		return
	}
	s.grow(len(o.words) - 1)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// Equal reports whether s and o contain exactly the same PUs.
func (s *CPUSet) Equal(o *CPUSet) bool {
	a, b := s, o
	if a == nil {
		a = &CPUSet{}
	}
	if b == nil {
		b = &CPUSet{}
	}
	n := len(a.words)
	if len(b.words) > n {
		n = len(b.words)
	}
	for i := 0; i < n; i++ {
		var wa, wb uint64
		if i < len(a.words) {
			wa = a.words[i]
		}
		if i < len(b.words) {
			wb = b.words[i]
		}
		if wa != wb {
			return false
		}
	}
	return true
}

// IsSubset reports whether every PU of s is also in o.
func (s *CPUSet) IsSubset(o *CPUSet) bool {
	if s == nil {
		return true
	}
	for i, w := range s.words {
		var wo uint64
		if o != nil && i < len(o.words) {
			wo = o.words[i]
		}
		if w&^wo != 0 {
			return false
		}
	}
	return true
}

// Nth returns the n-th smallest PU in the set (0-based), or -1 if the set
// has fewer than n+1 PUs.
func (s *CPUSet) Nth(n int) int {
	if s == nil || n < 0 {
		return -1
	}
	for i, w := range s.words {
		c := bits.OnesCount64(w)
		if n >= c {
			n -= c
			continue
		}
		for b := 0; b < wordBits; b++ {
			if w&(1<<uint(b)) != 0 {
				if n == 0 {
					return i*wordBits + b
				}
				n--
			}
		}
	}
	return -1
}

// Members returns the PUs in ascending order.
func (s *CPUSet) Members() []int {
	if s == nil {
		return nil
	}
	out := make([]int, 0, s.Count())
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, i*wordBits+b)
			w &^= 1 << uint(b)
		}
	}
	return out
}

// String renders the set in hwloc list syntax, e.g. "0-3,8,10-11".
// The empty set renders as "".
func (s *CPUSet) String() string {
	m := s.Members()
	if len(m) == 0 {
		return ""
	}
	var sb strings.Builder
	i := 0
	for i < len(m) {
		j := i
		for j+1 < len(m) && m[j+1] == m[j]+1 {
			j++
		}
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		if j == i {
			fmt.Fprintf(&sb, "%d", m[i])
		} else {
			fmt.Fprintf(&sb, "%d-%d", m[i], m[j])
		}
		i = j + 1
	}
	return sb.String()
}

// ParseCPUSet parses hwloc list syntax ("0-3,8,10-11"). The empty string
// parses to the empty set.
func ParseCPUSet(text string) (*CPUSet, error) {
	s := &CPUSet{}
	text = strings.TrimSpace(text)
	if text == "" {
		return s, nil
	}
	for _, part := range strings.Split(text, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.Atoi(strings.TrimSpace(lo))
			b, err2 := strconv.Atoi(strings.TrimSpace(hi))
			// The MaxSpecPUs ceiling keeps a hostile range ("0-9999999999")
			// from expanding into a gigabyte-sized bitmap.
			if err1 != nil || err2 != nil || a < 0 || a > b || b >= MaxSpecPUs {
				return nil, fmt.Errorf("hw: bad cpuset range %q", part)
			}
			for i := a; i <= b; i++ {
				s.Set(i)
			}
		} else {
			v, err := strconv.Atoi(part)
			if err != nil || v < 0 || v >= MaxSpecPUs {
				return nil, fmt.Errorf("hw: bad cpuset element %q", part)
			}
			s.Set(v)
		}
	}
	return s, nil
}
