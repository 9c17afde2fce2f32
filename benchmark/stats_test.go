package main

import (
	"errors"
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) is not NaN")
	}
	if got := Mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) is not NaN")
	}
}

// The expected quartiles are what Python prints for
// statistics.quantiles(v, n=4), which the acceptance driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{seq(10), 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{4.6, 4.55, 5.07, 4.9, 5.5, 4.63, 4.9, 5.0, 4.7, 4.8}, 4.6225, 5.0175},
	} {
		q1, q3 := Quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("Quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := Spread(seq(10)); math.Abs(got-1) > 1e-9 { // (8.25-2.75)/5.5
		t.Errorf("Spread(1..10) = %v, want 1", got)
	}
	if got := Spread([]float64{7}); got != 0 {
		t.Errorf("Spread of one value = %v, want 0", got)
	}
	if got := Spread([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("Spread of equal values = %v, want 0", got)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{99, 90, 0}, // fewer than 100 samples: no p90
		{100, 90, 90},
		{150, 90, 135},
		{999, 99, 0},
		{1000, 99, 990},
		{19, 50, 0},
		{20, 50, 10},
		{100, 100, 0},
		{100, 0, 0},
	} {
		got, err := Percentile(seq(c.n), c.p)
		if c.want == 0 {
			if !errors.Is(err, errTooFewSamples) {
				t.Errorf("Percentile(n=%d, p=%v) = %v, %v; want a refusal", c.n, c.p, got, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("Percentile(n=%d, p=%v) = %v, %v; want %v", c.n, c.p, got, err, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "block", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a.child", Start: 15, End: 25, Parent: 1},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: two clients at once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "lone", Start: 200, End: 230, Parent: -1},
	}
	want := []int64{
		100 - (30 + 20 + 10), // a covers 10-40, b adds 40-60, c adds 90-100
		30 - 10,
		10,
		30,
		30,
		30,
	}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	by := SelfByName(spans)
	if by["block"] != 40e-9 || by["a"] != 20e-9 {
		t.Errorf("SelfByName = %v", by)
	}
}

func TestTracerNesting(t *testing.T) {
	var off *Tracer
	off.End(off.Begin("x", 0)) // a nil tracer records nothing and does not panic
	if off.Fork() != nil || off.Spans() != nil {
		t.Error("nil tracer produced something")
	}
	tr := NewTracer()
	a := tr.Begin("a", -1)
	b := tr.Begin("b", 3)
	tr.End(b)
	f := tr.Fork()
	f.End(f.Begin("client", 0))
	tr.Merge(f)
	tr.End(a)
	s := tr.Spans()
	if len(s) != 3 || s[1].Parent != a || s[1].Op != 3 || s[2].Parent != -1 || s[0].End < s[1].End {
		t.Errorf("spans = %+v", s)
	}
}
