package hw

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCPUSetBasics(t *testing.T) {
	s := NewCPUSet()
	if !s.Empty() || s.Count() != 0 || s.Nth(0) != -1 {
		t.Fatalf("empty set misbehaves: %v", s)
	}
	s.Set(3)
	s.Set(70)
	s.Set(3) // idempotent
	if s.Count() != 2 {
		t.Fatalf("Count = %d, want 2", s.Count())
	}
	if !s.Contains(3) || !s.Contains(70) || s.Contains(4) {
		t.Fatal("Contains wrong")
	}
	if s.Nth(0) != 3 {
		t.Fatalf("Nth(0) = %d, want 3", s.Nth(0))
	}
}

func TestCPUSetNilReceivers(t *testing.T) {
	var s *CPUSet
	if s.Contains(0) || s.Count() != 0 || !s.Empty() {
		t.Fatal("nil set should behave as empty")
	}
	if s.Nth(0) != -1 {
		t.Fatal("nil Nth")
	}
	if s.Members() != nil {
		t.Fatal("nil Members")
	}
	if got := s.Clone(); got.Count() != 0 {
		t.Fatal("nil Clone")
	}
	if !s.Equal(NewCPUSet()) {
		t.Fatal("nil should Equal empty")
	}
	if !s.IsSubset(NewCPUSet(1)) {
		t.Fatal("nil IsSubset")
	}
}

func TestCPUSetSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(-1) should panic")
		}
	}()
	NewCPUSet().Set(-1)
}

func TestCPUSetRange(t *testing.T) {
	s := CPUSetRange(2, 5)
	if got := s.String(); got != "2-5" {
		t.Fatalf("String = %q, want 2-5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid range should panic")
		}
	}()
	CPUSetRange(5, 2)
}

func TestCPUSetNth(t *testing.T) {
	s := NewCPUSet(1, 5, 64, 130)
	for i, want := range []int{1, 5, 64, 130} {
		if got := s.Nth(i); got != want {
			t.Errorf("Nth(%d) = %d, want %d", i, got, want)
		}
	}
	if s.Nth(4) != -1 || s.Nth(-1) != -1 {
		t.Error("out-of-range Nth should be -1")
	}
}

func TestCPUSetOps(t *testing.T) {
	a := NewCPUSet(0, 1, 2, 65)
	b := NewCPUSet(2, 3, 65, 200)

	u := a.Clone()
	u.Or(b)
	if got, want := u.String(), "0-3,65,200"; got != want {
		t.Errorf("Or = %q, want %q", got, want)
	}

	i := NewCPUSet(2, 65)
	if !i.IsSubset(a) || !i.IsSubset(b) || a.IsSubset(b) {
		t.Error("IsSubset wrong")
	}
}

func TestCPUSetEqualDifferentLengths(t *testing.T) {
	a := NewCPUSet(1)
	b := &CPUSet{words: []uint64{1 << 1, 0, 0, 0, 0}} // extra zero words
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("Equal should ignore trailing zero words")
	}
}

func TestCPUSetStringParseRoundTrip(t *testing.T) {
	cases := []string{"", "0", "0-3", "0-3,8,10-11", "5,7,9", "63-65"}
	for _, c := range cases {
		s, err := ParseCPUSet(c)
		if err != nil {
			t.Fatalf("ParseCPUSet(%q): %v", c, err)
		}
		if got := s.String(); got != c {
			t.Errorf("round trip %q -> %q", c, got)
		}
	}
}

func TestParseCPUSetErrors(t *testing.T) {
	for _, c := range []string{"a", "3-1", "-1", "1,", "1--2", "1-b"} {
		if _, err := ParseCPUSet(c); err == nil {
			t.Errorf("ParseCPUSet(%q) should fail", c)
		}
	}
}

func TestParseCPUSetWhitespace(t *testing.T) {
	s, err := ParseCPUSet(" 0 - 3 , 8 ")
	if err != nil {
		t.Fatalf("whitespace parse: %v", err)
	}
	if s.String() != "0-3,8" {
		t.Fatalf("got %q", s.String())
	}
}

// randomSet builds a CPUSet from a random selection of indices below n.
func randomSet(r *rand.Rand, n int) *CPUSet {
	s := NewCPUSet()
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			s.Set(i)
		}
	}
	return s
}

func TestQuickCPUSetRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, 200)
		p, err := ParseCPUSet(s.String())
		return err == nil && p.Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCPUSetMembersSorted(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, 300)
		m := s.Members()
		if len(m) != s.Count() {
			return false
		}
		for i := 1; i < len(m); i++ {
			if m[i] <= m[i-1] {
				return false
			}
		}
		// Nth agrees with Members.
		for i, v := range m {
			if s.Nth(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCPUSetUnionCount(t *testing.T) {
	// |A u B| = |A| + |B| - |A n B|
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r, 150), randomSet(r, 150)
		u := a.Clone()
		u.Or(b)
		both := 0
		for _, pu := range a.Members() {
			if b.Contains(pu) {
				both++
			}
		}
		return u.Count() == a.Count()+b.Count()-both
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
