package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie above a reported
// percentile: a tail figure backed by fewer is mostly noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of
// values, or an error when fewer than minBeyond samples lie beyond it.
func percentile(values []float64, p float64) (float64, error) {
	n := len(values)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%.0f of %d samples has %d beyond it, want at least %d",
			p*100, n, beyond, minBeyond)
	}
	s := sortedCopy(values)
	return s[rank-1], nil
}

// minSamplesFor is the smallest sample count at which percentile p is
// reportable.
func minSamplesFor(p float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(p*float64(n))) >= minBeyond {
			return n
		}
	}
}

// median returns the median of values (the mean of the middle two for
// an even count), as Python's statistics.median does.
func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartiles of values by
// the method of Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), so spreads computed here match the ones computed
// from the printed results.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	if ld < 2 {
		v := math.NaN()
		if ld == 1 {
			v = s[0]
		}
		return v, v, v
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func sum(values []float64) float64 {
	var t float64
	for _, v := range values {
		t += v
	}
	return t
}
