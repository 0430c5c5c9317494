package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDescribeEmpty(t *testing.T) {
	s := Describe(nil)
	if s.N != 0 {
		t.Fatalf("empty describe N = %d", s.N)
	}
}

func TestDescribeSingle(t *testing.T) {
	s := Describe([]float64{5})
	if s.Min != 5 || s.Max != 5 || s.Median != 5 || s.Mean != 5 {
		t.Fatalf("single-element summary wrong: %+v", s)
	}
}

func TestDescribeKnown(t *testing.T) {
	// Classic Tukey-hinge example: 1..9 -> Q1=2.5 (median of 1..4),
	// median=5, Q3=7.5 (median of 6..9).
	s := Describe([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5})
	if s.Median != 5 {
		t.Errorf("median = %v, want 5", s.Median)
	}
	if s.Q1 != 2.5 {
		t.Errorf("Q1 = %v, want 2.5", s.Q1)
	}
	if s.Q3 != 7.5 {
		t.Errorf("Q3 = %v, want 7.5", s.Q3)
	}
	if s.Min != 1 || s.Max != 9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Mean != 5 {
		t.Errorf("mean = %v, want 5", s.Mean)
	}
	if s.IQR() != 5 {
		t.Errorf("IQR = %v, want 5", s.IQR())
	}
}

func TestDescribeOrderingInvariant(t *testing.T) {
	// Property: Min <= Q1 <= Median <= Q3 <= Max for any input.
	f := func(raw []float64) bool {
		vs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return true
		}
		s := Describe(vs)
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDescribePermutationInvariant(t *testing.T) {
	f := func(raw []float64) bool {
		vs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vs = append(vs, v)
			}
		}
		if len(vs) < 2 {
			return true
		}
		a := Describe(vs)
		shuffled := append([]float64(nil), vs...)
		sort.Sort(sort.Reverse(sort.Float64Slice(shuffled)))
		b := Describe(shuffled)
		return a.Median == b.Median && a.Q1 == b.Q1 && a.Q3 == b.Q3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 100})
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("GeoMean(1,100) = %v, want 10", got)
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Fatal("GeoMean with negative value should be NaN")
	}
	if !math.IsNaN(GeoMean(nil)) {
		t.Fatal("GeoMean of empty should be NaN")
	}
}

func TestMinMaxHelpers(t *testing.T) {
	if Min([]float64{3, 1, 2}) != 1 {
		t.Error("Min wrong")
	}
	if Max([]float64{3, 1, 2}) != 3 {
		t.Error("Max wrong")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be infinities")
	}
}

func TestMeanNaNOnEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Fatal("Mean wrong")
	}
}

// IQR returns the interquartile range (box size).
func (s Summary) IQR() float64 { return s.Q3 - s.Q1 }
