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

func TestAlignRuns(t *testing.T) {
	interval := sim.Millisecond
	mkRun := func(startWall clock.WallTime, buckets int) *Run {
		r := &Run{Host: 1, Interval: interval, Buckets: buckets, Started: true, StartWall: startWall}
		for d := 0; d < NumDirs; d++ {
			r.Bins[d] = make([]uint32, buckets*NumBins)
		}
		return r
	}
	r := mkRun(0, 4)
	// Bucket 1: 100 ingress segments in bin 1, 1 in bin 11 → p99 = 2048 µs
	// only at q beyond 100/101.
	r.Bins[0][1*NumBins+1] = 99
	r.Bins[0][1*NumBins+11] = 1
	r.Bins[1][1*NumBins+3] = 5

	s := AlignRuns([]*Run{r, nil}, []int{0, 1}, 0, interval, 3)
	if len(s.Servers) != 2 || s.Collected != 1 {
		t.Fatalf("servers %d collected %d", len(s.Servers), s.Collected)
	}
	ss := &s.Servers[0]
	if !ss.Collected || ss.ValidSamples != 3 {
		t.Fatalf("server 0: collected=%v valid=%d", ss.Collected, ss.ValidSamples)
	}
	if ss.InSegs[1] != 100 || ss.EgSegs[1] != 5 {
		t.Fatalf("sample 1 counts: in %d eg %d", ss.InSegs[1], ss.EgSegs[1])
	}
	if ss.InP99Us[1] != 2 {
		t.Fatalf("sample 1 p99 = %v, want 2 (99th of 100 lands in bin 1)", ss.InP99Us[1])
	}
	if ss.InP999Us[1] != 2048 {
		t.Fatalf("sample 1 p999 = %v, want 2048", ss.InP999Us[1])
	}
	if ss.InBins[1] != 99 || ss.InBins[11] != 1 {
		t.Fatalf("window totals wrong: %v", ss.InBins)
	}
	if s.Servers[1].Collected {
		t.Fatal("nil run marked collected")
	}
	tin := s.TotalsIn()
	if tin[1] != 99 || tin[11] != 1 {
		t.Fatalf("TotalsIn wrong: %v", tin)
	}

	// A run starting 1 ms before the common origin maps sample 0 → bucket 1.
	early := mkRun(0, 4)
	early.Bins[0][1*NumBins+2] = 7
	s2 := AlignRuns([]*Run{early}, []int{0}, clock.WallTime(interval), interval, 2)
	if s2.Servers[0].InSegs[0] != 7 {
		t.Fatalf("offset mapping wrong: sample 0 = %d, want 7", s2.Servers[0].InSegs[0])
	}

	// Truncated runs stop contributing at their valid region.
	tr := mkRun(0, 4)
	tr.Truncated = true
	tr.ValidBuckets = 2
	tr.Bins[0][0*NumBins+1] = 3
	s3 := AlignRuns([]*Run{tr}, []int{0}, 0, interval, 4)
	if s3.Servers[0].ValidSamples != 2 {
		t.Fatalf("truncated valid samples = %d, want 2", s3.Servers[0].ValidSamples)
	}
}
