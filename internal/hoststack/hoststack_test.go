package hoststack

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/sim"
)

func TestBinBounds(t *testing.T) {
	cases := []struct {
		d    sim.Time
		want int
	}{
		{0, 0},
		{999 * sim.Nanosecond, 0},
		{sim.Microsecond, 1},
		{1500 * sim.Nanosecond, 1},
		{2 * sim.Microsecond, 2},
		{3 * sim.Microsecond, 2},
		{4 * sim.Microsecond, 3},
		{sim.Millisecond, 10},      // 1000 µs ∈ [512, 1024)
		{65 * sim.Millisecond, 16}, // 65000 µs ∈ [32768, 65536)
		{66 * sim.Millisecond, 17}, // past 2^16 µs: overflow bin
		{10 * sim.Second, NumBins - 1},
	}
	for _, c := range cases {
		if got := Bin(c.d); got != c.want {
			t.Errorf("Bin(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Bin k's contents must lie under BinUpperUs(k) for non-overflow bins.
	if BinUpperUs(0) != 1 || BinUpperUs(1) != 2 || BinUpperUs(11) != 2048 {
		t.Errorf("BinUpperUs bounds wrong: %v %v %v", BinUpperUs(0), BinUpperUs(1), BinUpperUs(11))
	}
}

func TestQuantileUs(t *testing.T) {
	var bins [NumBins]uint64
	if _, ok := QuantileUs(bins[:], 0.99); ok {
		t.Fatal("empty histogram produced a quantile")
	}
	bins[1] = 90 // [1,2) µs
	bins[5] = 9  // [16,32) µs
	bins[11] = 1 // [1024,2048) µs
	if p, _ := QuantileUs(bins[:], 0.50); p != 2 {
		t.Fatalf("p50 = %v, want 2", p)
	}
	if p, _ := QuantileUs(bins[:], 0.99); p != 32 {
		t.Fatalf("p99 = %v, want 32", p)
	}
	if p, _ := QuantileUs(bins[:], 0.999); p != 2048 {
		t.Fatalf("p999 = %v, want 2048", p)
	}
}

func TestReduce(t *testing.T) {
	interval := sim.Millisecond
	mkRun := func(startWall clock.WallTime, buckets int) *Run {
		r := &Run{Host: 1, Interval: interval, Buckets: buckets, Started: true, StartWall: startWall}
		for d := 0; d < NumDirs; d++ {
			r.Bins[d] = make([]uint32, buckets*NumBins)
		}
		return r
	}
	in := func(r *Run, bucket, bin int, n uint32) { r.Bins[0][bucket*NumBins+bin] += n }

	r := mkRun(0, 4)
	in(r, 0, 1, 1000)
	// Bucket 1: 99 segments in bin 1 and one in bin 11, so its p99 is 2 µs
	// and only its p999 reaches 2048 µs.
	in(r, 1, 1, 99)
	in(r, 1, 11, 1)
	// Bucket 2's lone segment makes it the worst bucket: p99 256 µs, while
	// the window's p99 stays at 2 µs.
	in(r, 2, 8, 1)
	// Bucket 3 lies past the three aligned samples.
	in(r, 3, 2, 7)
	r.Bins[1][1*NumBins+3] = 5

	// Runs that cannot be placed on the grid add nothing.
	unstarted := mkRun(0, 4)
	unstarted.Started = false
	in(unstarted, 0, 1, 50)
	other := mkRun(0, 4)
	other.Interval = 10 * interval
	in(other, 0, 1, 50)

	w := Reduce([]*Run{r, nil, unstarted, other}, 0, interval, 3)
	if w.Hosts != 1 {
		t.Fatalf("Hosts = %d, want 1", w.Hosts)
	}
	if w.In[1] != 1099 || w.In[8] != 1 || w.In[11] != 1 || w.In[2] != 0 || w.Eg[3] != 5 {
		t.Fatalf("window histograms wrong: in %v eg %v", w.In, w.Eg)
	}
	if w.MaxInP99Us != 256 {
		t.Fatalf("MaxInP99Us = %v, want 256 (bucket 2's p99)", w.MaxInP99Us)
	}

	// A run that started before the common origin maps sample 0 to its
	// nearest bucket: 1 ms or 0.6 ms early is bucket 1, 0.4 ms is bucket 0.
	for _, c := range []struct {
		early  sim.Time
		bucket int
	}{{interval, 1}, {600 * sim.Microsecond, 1}, {400 * sim.Microsecond, 0}} {
		e := mkRun(0, 4)
		in(e, 0, 4, 3)
		in(e, 1, 2, 7)
		w := Reduce([]*Run{e}, clock.WallTime(c.early), interval, 1)
		want := [2]uint64{3, 0}
		if c.bucket == 1 {
			want = [2]uint64{0, 7}
		}
		if got := [2]uint64{w.In[4], w.In[2]}; got != want {
			t.Fatalf("%v early: bucket counts %v, want %v (sample 0 = bucket %d)", c.early, got, want, c.bucket)
		}
	}

	// A truncated run stops contributing at ValidBuckets; one with nothing
	// valid is not counted.
	tr := mkRun(0, 4)
	tr.Truncated = true
	tr.ValidBuckets = 2
	in(tr, 0, 1, 3)
	in(tr, 2, 1, 5)
	if w := Reduce([]*Run{tr}, 0, interval, 4); w.Hosts != 1 || w.In[1] != 3 {
		t.Fatalf("truncated: Hosts %d, in[1] %d, want 1 and 3", w.Hosts, w.In[1])
	}
	tr.ValidBuckets = 0
	if w := Reduce([]*Run{tr}, 0, interval, 4); w.Hosts != 0 || w.In[1] != 0 {
		t.Fatalf("nothing valid: Hosts %d, in[1] %d, want 0 and 0", w.Hosts, w.In[1])
	}
}
