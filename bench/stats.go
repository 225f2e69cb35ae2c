package bench

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 < p <= 100) of values by the
// nearest-rank rule: the smallest value with at least p percent of the
// sample at or below it. It returns 0 for an empty sample.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// Median returns the middle value, or the mean of the two middle values
// of an even-sized sample.
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
