package permute

import (
	"fmt"
	"testing"
)

func TestFactorial(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 5: 120, 9: 362880}
	for n, want := range cases {
		if got := Factorial(n); got != want {
			t.Errorf("Factorial(%d) = %d, want %d", n, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative factorial should panic")
		}
	}()
	Factorial(-1)
}

func TestEachVisitsAllDistinct(t *testing.T) {
	for n := 1; n <= 6; n++ {
		seen := map[string]bool{}
		Each(n, func(perm []int) bool {
			if len(perm) != n {
				t.Fatalf("perm length %d", len(perm))
			}
			present := make([]bool, n)
			for _, v := range perm {
				if v < 0 || v >= n || present[v] {
					t.Fatalf("not a permutation: %v", perm)
				}
				present[v] = true
			}
			seen[fmt.Sprint(perm)] = true
			return true
		})
		if len(seen) != Factorial(n) {
			t.Fatalf("n=%d: visited %d distinct, want %d", n, len(seen), Factorial(n))
		}
	}
}

func TestEachEarlyStop(t *testing.T) {
	calls := 0
	Each(5, func(perm []int) bool {
		calls++
		return calls < 10
	})
	if calls != 10 {
		t.Fatalf("calls = %d", calls)
	}
	Each(0, func(perm []int) bool { t.Fatal("n=0 should not call"); return true })
}

func TestNinePermutationsCount(t *testing.T) {
	// The paper's claim: 9 resource levels yield 362,880 layouts.
	if testing.Short() {
		t.Skip("full 9! enumeration")
	}
	count := 0
	Each(9, func(perm []int) bool {
		count++
		return true
	})
	if count != 362880 {
		t.Fatalf("count = %d, want 362880", count)
	}
}
