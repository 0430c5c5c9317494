// Fixture for the maprange analyzer: map iterations whose bodies can
// leak Go's randomized iteration order into output, next to the
// near-miss idioms the analyzer must accept.
package a

import "sort"

func sink(string) {}

// Positive: a call in the body can observe iteration order.
func logsInOrder(m map[string]int) {
	for k := range m { // want "iterating a map"
		sink(k)
	}
}

// Positive: keys are collected but never sorted before the function
// returns them.
func collectNoSort(m map[string]int) []string {
	var keys []string
	for k := range m { // want "collected into keys are never sorted"
		keys = append(keys, k)
	}
	return keys
}

// Positive: float addition is not associative, so a float sum in map
// order is not bit-deterministic.
func sumFloats(m map[string]float64) float64 {
	var total float64
	for _, v := range m { // want "iterating a map"
		total += v
	}
	return total
}

// Near miss: the collect-then-sort idiom (keys gathered, then sorted) is the
// blessed pattern and must pass.
func collectSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Near miss: a map-to-map copy is insertion-order independent.
func copyMap(src map[int]int) map[int]int {
	dst := make(map[int]int, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// Near miss: commutative integer accumulation.
func countAll(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// Near miss: ranging a slice is not map iteration at all.
func sliceRange(xs []string) {
	for _, x := range xs {
		sink(x)
	}
}
