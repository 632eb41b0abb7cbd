package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile of xs: the
// smallest sample such that at least p% of the samples are at or below
// it. It returns NaN for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailSamples is how many samples must lie beyond a percentile before
// it is reported: a p99 needs 1,000 samples.
const tailSamples = 10

// tailReportable reports whether n samples leave at least tailSamples
// beyond the p-th percentile.
func tailReportable(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= tailSamples-1e-9
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (the layer did no work of that kind).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// orZero maps NaN (no samples) to 0 for metrics of layers a workload
// does not exercise.
func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
