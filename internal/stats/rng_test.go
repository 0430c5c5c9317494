package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	s := uint64(42)
	r := NewRNG(42)
	for i := 0; i < 100; i++ {
		if want, got := SplitMix64(&s), r.Uint64(); got != want {
			t.Fatalf("RNG diverged from the SplitMix64 stream at step %d: %#x, want %#x", i, got, want)
		}
	}
	if r.State() != s {
		t.Fatalf("RNG state %#x, want %#x", r.State(), s)
	}
}

func TestSplitMix64KnownValue(t *testing.T) {
	// Reference value from the SplitMix64 reference implementation with
	// seed 0: first output is 0xE220A8397B1DCDAF.
	s := uint64(0)
	got := SplitMix64(&s)
	if got != 0xE220A8397B1DCDAF {
		t.Fatalf("SplitMix64(0) = %#x, want 0xE220A8397B1DCDAF", got)
	}
	if got := NewRNG(0).Uint64(); got != 0xE220A8397B1DCDAF {
		t.Fatalf("NewRNG(0).Uint64() = %#x, want 0xE220A8397B1DCDAF", got)
	}
}

func TestMix64Injective(t *testing.T) {
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix64 collision: %d and %d -> %#x", prev, i, h)
		}
		seen[h] = i
	}
}

func TestCombineOrderSensitive(t *testing.T) {
	if Combine(1, 2) == Combine(2, 1) {
		t.Fatal("Combine should be order sensitive")
	}
	if Combine(1, 2) != Combine(1, 2) {
		t.Fatal("Combine should be deterministic")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(123)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 20, 100} {
		r := NewRNG(uint64(lambda * 1000))
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda) > 0.05*lambda+0.1 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestPoissonZeroLambda(t *testing.T) {
	r := NewRNG(1)
	if got := r.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
	if got := r.Poisson(-1); got != 0 {
		t.Fatalf("Poisson(-1) = %d, want 0", got)
	}
}

func TestUnitFromHashProperties(t *testing.T) {
	f := func(h uint64) bool {
		u := UnitFromHash(h)
		return u > 0 && u < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalFromHashDeterministic(t *testing.T) {
	f := func(h uint64) bool {
		a := NormalFromHash(h)
		b := NormalFromHash(h)
		return a == b && !math.IsNaN(a) && !math.IsInf(a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogNormalFromHashPositive(t *testing.T) {
	f := func(h uint64) bool {
		return LogNormalFromHash(h, 0, 1) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogNormalMedianRoughly(t *testing.T) {
	// Median of LogNormal(mu, sigma) is exp(mu).
	r := NewRNG(77)
	const n = 100001
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.LogNormal(2, 0.5)
	}
	med := Describe(vs).Median
	want := math.Exp(2)
	if math.Abs(med-want)/want > 0.05 {
		t.Errorf("log-normal median = %v, want ~%v", med, want)
	}
}

// SplitMix64 is the canonical generator of Steele et al.: it advances the
// state and returns the next 64-bit value. RNG.Uint64 must reproduce its
// stream.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// LogNormal returns exp(mu + sigma*Z) for standard normal Z.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// LogNormalFromHash derives a log-normal variate exp(mu+sigma*Z) from a hash.
func LogNormalFromHash(h uint64, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*NormalFromHash(h))
}
