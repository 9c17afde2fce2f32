package main

import (
	"errors"
	"math"
	"sort"
)

// errTooFewSamples is returned by Percentile when the sample cannot support
// the requested percentile: fewer than ten values lie beyond it.
var errTooFewSamples = errors.New("too few samples: fewer than 10 beyond the percentile")

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// Median of v; NaN for an empty slice.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), because that is
// what the acceptance driver computes spreads with. It needs two values.
func Quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		return math.NaN(), math.NaN()
	}
	s := sorted(v)
	n := len(s)
	at := func(i int) float64 { // i-th of the 4-quantile cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		d := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(3)
}

// Spread is the interquartile range as a share of the median: the noise
// figure every metric is printed with. Zero when there is one value.
func Spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := Quartiles(v)
	m := Median(v)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// Percentile returns the p-th percentile (0 < p < 100, nearest rank) of v.
// It refuses when fewer than ten samples lie beyond the percentile, so a p90
// needs at least 100 samples and a p99 at least 1000.
func Percentile(v []float64, p float64) (float64, error) {
	n := len(v)
	beyond := float64(n) * (100 - p) / 100
	if p <= 0 || p >= 100 || beyond < 10 {
		return math.NaN(), errTooFewSamples
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(n)))
	return s[rank-1], nil
}

// Mean of v; NaN for an empty slice.
func Mean(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}
