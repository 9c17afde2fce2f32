// Package stats provides the small statistical toolkit the paper's figures
// are built from: empirical CDFs, percentiles, box-plot summaries, bucketed
// grouping, and correlation.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between order statistics. It copies and sorts its input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// CDF is an empirical cumulative distribution over a fixed sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from values (copied).
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the sample size.
func (c *CDF) N() int { return len(c.sorted) }

// At returns the fraction of samples <= x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the p-th percentile (p in [0,100]).
func (c *CDF) Quantile(p float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return percentileSorted(c.sorted, p)
}

// Points renders n evenly spaced (value, fraction) pairs for plotting or
// tabular reports.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		p := float64(i) / float64(n-1) * 100
		if n == 1 {
			p = 50
		}
		pts = append(pts, Point{X: percentileSorted(c.sorted, p), Y: p / 100})
	}
	return pts
}

// Point is an (x, y) pair in a rendered series.
type Point struct{ X, Y float64 }

// BoxPlot is the five-number summary plus mean used by the diurnal figures.
type BoxPlot struct {
	Min, P25, Median, P75, P90, Max, Mean float64
	N                                     int
}

// Summarize computes a BoxPlot; an empty input yields NaN fields.
func Summarize(xs []float64) BoxPlot {
	if len(xs) == 0 {
		nan := math.NaN()
		return BoxPlot{Min: nan, P25: nan, Median: nan, P75: nan, P90: nan, Max: nan, Mean: nan}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return BoxPlot{
		Min:    s[0],
		P25:    percentileSorted(s, 25),
		Median: percentileSorted(s, 50),
		P75:    percentileSorted(s, 75),
		P90:    percentileSorted(s, 90),
		Max:    s[len(s)-1],
		Mean:   Mean(s),
		N:      len(s),
	}
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples, or NaN when undefined.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return math.NaN()
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Bucketed groups (key, value) observations into fixed-width key buckets and
// reports a summary per bucket — the construction behind Figures 14, 16, 18
// and 19 (loss or contention versus a bucketed property).
type Bucketed struct {
	Width   float64
	buckets map[int][]float64
}

// NewBucketed creates a grouper with the given bucket width.
func NewBucketed(width float64) *Bucketed {
	if width <= 0 {
		panic("stats: bucket width must be positive")
	}
	return &Bucketed{Width: width, buckets: make(map[int][]float64)}
}

// Add records one observation with bucketing key k.
func (b *Bucketed) Add(k, v float64) {
	b.buckets[int(math.Floor(k/b.Width))] = append(b.buckets[int(math.Floor(k/b.Width))], v)
}

// BucketSummary is one bucket's aggregate.
type BucketSummary struct {
	// Lo and Hi bound the bucket's key range [Lo, Hi).
	Lo, Hi float64
	Box    BoxPlot
}

// Summaries returns per-bucket summaries in ascending key order.
func (b *Bucketed) Summaries() []BucketSummary {
	keys := make([]int, 0, len(b.buckets))
	for k := range b.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]BucketSummary, 0, len(keys))
	for _, k := range keys {
		out = append(out, BucketSummary{
			Lo:  float64(k) * b.Width,
			Hi:  float64(k+1) * b.Width,
			Box: Summarize(b.buckets[k]),
		})
	}
	return out
}

// RatioBucketed groups boolean outcomes by a bucketed key and reports the
// fraction true per bucket — "% of bursts with loss" style series.
type RatioBucketed struct {
	Width float64
	hits  map[int]int
	total map[int]int
}

// NewRatioBucketed creates a ratio grouper with the given bucket width.
func NewRatioBucketed(width float64) *RatioBucketed {
	if width <= 0 {
		panic("stats: bucket width must be positive")
	}
	return &RatioBucketed{Width: width, hits: make(map[int]int), total: make(map[int]int)}
}

// Add records one observation.
func (b *RatioBucketed) Add(k float64, hit bool) {
	i := int(math.Floor(k / b.Width))
	b.total[i]++
	if hit {
		b.hits[i]++
	}
}

// RatioPoint is one bucket's hit fraction.
type RatioPoint struct {
	Lo, Hi float64
	Ratio  float64
	N      int
}

// Points returns per-bucket ratios in ascending key order.
func (b *RatioBucketed) Points() []RatioPoint {
	keys := make([]int, 0, len(b.total))
	for k := range b.total {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]RatioPoint, 0, len(keys))
	for _, k := range keys {
		out = append(out, RatioPoint{
			Lo:    float64(k) * b.Width,
			Hi:    float64(k+1) * b.Width,
			Ratio: float64(b.hits[k]) / float64(b.total[k]),
			N:     b.total[k],
		})
	}
	return out
}
