package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of ascending sorted
// values by nearest rank; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// tailPercentiles are the tail figures the benchmark knows how to name.
var tailPercentiles = []float64{99.9, 99, 90}

// highestPercentile applies the reporting rule for tails: the highest
// percentile that still has at least ten samples beyond it, or 0 when even
// p90 has not (n < 100). p99 therefore needs 1000 samples.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p) >= 1000-1e-6 { // n*(100-p)/100 >= 10, safe against 99.9's rounding
			return p
		}
	}
	return 0
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
