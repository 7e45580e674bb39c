package main

import (
	"math"
	"sort"
)

// quantile is the nearest-rank q-quantile of v (0 when empty). v is
// sorted in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	rank := int(math.Ceil(q*float64(len(v)))) - 1
	if rank < 0 {
		rank = 0
	}
	return v[rank]
}

// median averages the two middle values of an even-sized sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func column[T any](rows []T, f func(T) float64) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = f(r)
	}
	return out
}
