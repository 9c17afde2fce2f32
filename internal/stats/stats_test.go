package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
}

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile not NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); math.Abs(got-cse.want) > 1e-9 {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	if got := c.Quantile(50); got != 2 {
		t.Errorf("Quantile(50) = %v", got)
	}
	if c.N() != 4 {
		t.Errorf("N = %d", c.N())
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	c := NewCDF([]float64{5, 3, 8, 1, 9, 2, 2, 7})
	pts := c.Points(10)
	if len(pts) != 10 {
		t.Fatalf("Points(10) = %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Fatalf("non-monotone CDF points: %+v", pts)
		}
	}
	if pts[0].Y != 0 || pts[len(pts)-1].Y != 1 {
		t.Errorf("endpoints %v..%v", pts[0].Y, pts[len(pts)-1].Y)
	}
}

func TestCDFQuantileAtInverse(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		c := NewCDF(xs)
		// At(Quantile(p)) >= p/100 - 1/n: interpolated quantiles can sit
		// strictly between order statistics, costing at most one step.
		slack := 1/float64(c.N()) + 1e-9
		for _, p := range []float64{10, 25, 50, 75, 90} {
			q := c.Quantile(p)
			if c.At(q) < p/100-slack {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	b := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if b.Min != 1 || b.Max != 10 || b.N != 10 {
		t.Errorf("box = %+v", b)
	}
	if math.Abs(b.Median-5.5) > 1e-9 || math.Abs(b.Mean-5.5) > 1e-9 {
		t.Errorf("median/mean = %v/%v", b.Median, b.Mean)
	}
	if b.P25 >= b.Median || b.Median >= b.P75 || b.P75 >= b.P90 {
		t.Errorf("quartiles out of order: %+v", b)
	}
	empty := Summarize(nil)
	if !math.IsNaN(empty.Median) {
		t.Error("empty summary not NaN")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yPos := []float64{2, 4, 6, 8, 10}
	yNeg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, yPos); math.Abs(got-1) > 1e-9 {
		t.Errorf("perfect positive = %v", got)
	}
	if got := Pearson(x, yNeg); math.Abs(got+1) > 1e-9 {
		t.Errorf("perfect negative = %v", got)
	}
	if !math.IsNaN(Pearson(x, []float64{1, 1, 1, 1, 1})) {
		t.Error("zero-variance correlation not NaN")
	}
	if !math.IsNaN(Pearson(x, x[:3])) {
		t.Error("length mismatch not NaN")
	}
}

func TestBucketed(t *testing.T) {
	b := NewBucketed(2)
	b.Add(0.5, 10)
	b.Add(1.5, 20)
	b.Add(2.5, 30)
	b.Add(5.1, 40)
	sums := b.Summaries()
	if len(sums) != 3 {
		t.Fatalf("buckets = %d", len(sums))
	}
	if sums[0].Lo != 0 || sums[0].Hi != 2 || sums[0].Box.N != 2 {
		t.Errorf("bucket 0 = %+v", sums[0])
	}
	if sums[0].Box.Mean != 15 {
		t.Errorf("bucket 0 mean = %v", sums[0].Box.Mean)
	}
	if sums[2].Lo != 4 || sums[2].Box.N != 1 {
		t.Errorf("bucket 2 = %+v", sums[2])
	}
}

func TestRatioBucketed(t *testing.T) {
	b := NewRatioBucketed(1)
	for i := 0; i < 10; i++ {
		b.Add(0.5, i < 3) // 30% in bucket 0
	}
	b.Add(2.5, true) // 100% in bucket 2
	pts := b.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if math.Abs(pts[0].Ratio-0.3) > 1e-9 || pts[0].N != 10 {
		t.Errorf("bucket 0 = %+v", pts[0])
	}
	if pts[1].Ratio != 1 || pts[1].Lo != 2 {
		t.Errorf("bucket 2 = %+v", pts[1])
	}
}

func TestBucketedPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero width did not panic")
		}
	}()
	NewBucketed(0)
}

func TestSummariesSorted(t *testing.T) {
	f := func(keys []uint8) bool {
		b := NewBucketed(3)
		for _, k := range keys {
			b.Add(float64(k), 1)
		}
		sums := b.Summaries()
		los := make([]float64, len(sums))
		for i, s := range sums {
			los[i] = s.Lo
		}
		return sort.Float64sAreSorted(los)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
