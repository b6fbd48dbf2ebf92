// Package permute provides permutation enumeration for the layout-space
// experiments (the paper's 362,880 = 9! mapping permutations claim).
package permute

// Factorial returns n! (panics for negative n; overflows are the caller's
// concern — 9! is the largest value the experiments use).
func Factorial(n int) int {
	if n < 0 {
		panic("permute: negative factorial")
	}
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// Each visits every permutation of 0..n-1 exactly once, calling f with a
// reusable slice (copy it to retain). Iteration stops early when f returns
// false. The order is Heap's algorithm order, deterministic across runs.
func Each(n int, f func(perm []int) bool) {
	if n <= 0 {
		return
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	c := make([]int, n)
	if !f(perm) {
		return
	}
	i := 0
	for i < n {
		if c[i] < i {
			if i%2 == 0 {
				perm[0], perm[i] = perm[i], perm[0]
			} else {
				perm[c[i]], perm[i] = perm[i], perm[c[i]]
			}
			if !f(perm) {
				return
			}
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
}
