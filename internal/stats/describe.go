package stats

import (
	"math"
	"sort"
)

// Summary holds the descriptive statistics used by the paper's
// box-and-whiskers plots (Figs. 1, 25, 26) and error bands (Figs. 6, 9, 17).
type Summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	Mean   float64
	StdDev float64
}

// Describe computes a Summary over vs. It returns a zero Summary when vs is
// empty. The quartile convention matches the paper's footnote 2: Q1 is the
// median of the lower half and Q3 the median of the upper half of the
// ordered data (Tukey hinges, excluding the middle element for odd n).
func Describe(vs []float64) Summary {
	if len(vs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	n := len(sorted)

	var sum, sumSq float64
	for _, v := range sorted {
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}

	half := n / 2
	lower := sorted[:half]
	upper := sorted[n-half:]
	if half == 0 { // single element: quartiles collapse onto the median
		lower, upper = sorted, sorted
	}
	return Summary{
		N:      n,
		Min:    sorted[0],
		Q1:     medianSorted(lower),
		Median: medianSorted(sorted),
		Q3:     medianSorted(upper),
		Max:    sorted[n-1],
		Mean:   mean,
		StdDev: math.Sqrt(variance),
	}
}

func medianSorted(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	// Average the two middle elements without overflowing near MaxFloat64.
	return sorted[n/2-1]/2 + sorted[n/2]/2
}

// Mean returns the arithmetic mean of vs, or NaN when empty.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// GeoMean returns the geometric mean of vs (all values must be positive),
// used for the normalized IPC aggregation in Appendix D.
func GeoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, v := range vs {
		if v <= 0 {
			return math.NaN()
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(vs)))
}

// Min returns the minimum of vs, or +Inf when empty.
func Min(vs []float64) float64 {
	m := math.Inf(1)
	for _, v := range vs {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum of vs, or -Inf when empty.
func Max(vs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}
