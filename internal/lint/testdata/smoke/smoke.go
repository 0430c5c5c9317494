// Package smoke deliberately violates every invariant the lint suite
// checks, in one file. TestSmokeFixture checks the exact findings and
// that every analyzer, plus the ignore pseudo-analyzer, reports at
// least one of them.
package smoke

import (
	"math/rand" // want "import of math/rand"
	"sync/atomic"
	"time"
)

// maprange: keys are collected and returned unsorted.
func mapOrder(m map[string]int) []string {
	var keys []string
	for k := range m { // want "collected into keys are never sorted"
		keys = append(keys, k)
	}
	return keys
}

// wallclock: this package has no exempt path element.
func wallClock() time.Duration {
	t0 := time.Now()      // want "time.Now reads the wall clock"
	return time.Since(t0) // want "time.Since reads the wall clock"
}

// rngsource: randomness not derived from Options.Seed.
func unseeded() int {
	return rand.Intn(6) // want "rand.Intn is not derived from Options.Seed"
}

type hits struct{ n uint64 }

// atomicmix: n is atomic in bump but plain in read.
func (h *hits) bump() { atomic.AddUint64(&h.n, 1) }

func (h *hits) read() uint64 {
	return h.n // want "field hits.n is accessed with atomic.AddUint64 elsewhere"
}

// ignore: a reason-less suppression is itself a finding.
//
//lint:ignore rowpressvet/maprange // want "suppression requires a reason"
var _ = 0
