// Package core is the mapiter fixture: positive findings for every sink
// kind, plus one function per false-positive class the analyzer must not
// flag. The package is named after a deterministic package so the
// analyzer's package gate admits it.
package core

import (
	"sort"

	"lama/internal/obs"
)

// returnInLoop leaks iteration order through a return value.
func returnInLoop(m map[int]string) string {
	for _, v := range m { // want `map iteration order reaches a return value`
		if len(v) > 3 {
			return v
		}
	}
	return ""
}

// appendUnsorted leaks iteration order through an unsorted slice append.
func appendUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want `map iteration order reaches a slice append`
		keys = append(keys, k)
	}
	return keys
}

// emitInLoop leaks iteration order through event emission.
func emitInLoop(o *obs.Observer, m map[int]int) {
	for k := range m { // want `map iteration order reaches an event emission`
		o.Emit(obs.SrcMap, obs.EvVisit, obs.F("key", k))
	}
}

// argmaxSelection is the PR 4 treematch bug shape: a greedy argmax over a
// map of unassigned ranks, where equal-weight ties break by iteration
// order. The sink is reached after the loop, not inside it.
func argmaxSelection(unassigned map[int]float64) int {
	best, bestW := -1, -1.0
	for r, w := range unassigned { // want `map iteration order reaches a conditional selection of best, bestW`
		if w > bestW {
			best, bestW = r, w
		}
	}
	return best
}

// derivedSelection taints a loop-local through arithmetic before the
// selection, so detection cannot depend on the range variable appearing
// verbatim in the assignment.
func derivedSelection(traffic map[int][]float64) int {
	best, bestW := -1, -1.0
	for r, row := range traffic { // want `map iteration order reaches a conditional selection of bestW, best`
		w := 0.0
		for _, b := range row {
			w += b
		}
		if w > bestW {
			bestW = w
			best = r
		}
	}
	return best
}

// collectThenSort is the sanctioned idiom: collection order is irrelevant
// because the slice is sorted before use.
func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// aggregateOnly folds commutatively; order cannot matter.
func aggregateOnly(m map[int]float64) float64 {
	total := 0.0
	count := 0
	for _, w := range m {
		total += w
		count++
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// setMembership writes map entries keyed by the iterated key; map writes
// are order-insensitive.
func setMembership(m map[int]int) map[int]bool {
	out := make(map[int]bool, len(m))
	for k, v := range m {
		out[k] = v > 0
	}
	return out
}

// annotatedExemption carries a reasoned suppression: any element
// satisfies the caller, so which one wins is immaterial.
func annotatedExemption(m map[int]string) string {
	//lama:nondet-ok any witness value is acceptable to the caller
	for _, v := range m {
		if v != "" {
			return v
		}
	}
	return ""
}

// bareAnnotation shows that a reasonless suppression does not suppress:
// the malformed annotation and the underlying finding are both reported.
func bareAnnotation(m map[int]string) string {
	//lama:nondet-ok
	for _, v := range m { // want `map iteration order reaches a return value` `annotation requires a reason`
		return v
	}
	return ""
}
