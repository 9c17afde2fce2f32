package hoststack

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func testHost(cores int) (*sim.Engine, *netsim.Host) {
	eng := sim.NewEngine()
	h := netsim.NewHost(eng, netsim.HostConfig{ID: 1, Cores: cores})
	h.SetForwarder(netsim.ForwarderFunc(func(*netsim.Segment) {}))
	return eng, h
}

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

func TestObserveAndRead(t *testing.T) {
	_, h := testHost(2)
	s := NewSampler(h, Config{Interval: sim.Millisecond, Buckets: 4})
	s.Attach()
	if !h.StackTapInstalled() {
		t.Fatal("tap not installed after Attach")
	}
	s.Enable()

	seg := &netsim.Segment{Size: 1500}
	// Bucket 0: two ingress observations, 10 µs and 3 µs; one egress, 100 µs.
	s.Observe(0, 0, netsim.Ingress, seg, 10*sim.Microsecond)
	s.Observe(100*sim.Microsecond, 1, netsim.Ingress, seg, 3*sim.Microsecond)
	s.Observe(200*sim.Microsecond, 0, netsim.Egress, seg, 100*sim.Microsecond)
	// Bucket 2: one ingress at 2 ms latency.
	s.Observe(2500*sim.Microsecond, 1, netsim.Ingress, seg, 2*sim.Millisecond)

	r := s.Read()
	if !r.Started {
		t.Fatal("run not started")
	}
	b0 := r.Bucket(netsim.Ingress, 0)
	if b0[Bin(10*sim.Microsecond)] != 1 || b0[Bin(3*sim.Microsecond)] != 1 {
		t.Fatalf("bucket 0 ingress bins wrong: %v", b0)
	}
	if r.Bucket(netsim.Egress, 0)[Bin(100*sim.Microsecond)] != 1 {
		t.Fatalf("bucket 0 egress bins wrong: %v", r.Bucket(netsim.Egress, 0))
	}
	if r.Bucket(netsim.Ingress, 2)[Bin(2*sim.Millisecond)] != 1 {
		t.Fatalf("bucket 2 ingress bins wrong: %v", r.Bucket(netsim.Ingress, 2))
	}
	tot := r.Totals(netsim.Ingress)
	var n uint64
	for _, v := range tot {
		n += v
	}
	if n != 3 {
		t.Fatalf("ingress totals = %d observations, want 3", n)
	}

	// Self-clearing: a segment beyond the 4 ms window disables the run.
	s.Observe(10*sim.Millisecond, 0, netsim.Ingress, seg, sim.Microsecond)
	if s.Enabled() {
		t.Fatal("run did not self-clear past the window")
	}
	if s.DisabledCalls != 0 {
		t.Fatalf("DisabledCalls = %d before any disabled-path call", s.DisabledCalls)
	}
	s.Observe(11*sim.Millisecond, 0, netsim.Ingress, seg, sim.Microsecond)
	if s.DisabledCalls != 1 {
		t.Fatalf("DisabledCalls = %d, want 1", s.DisabledCalls)
	}
}

// TestSoftirqQueueing exercises the virtual per-core service model: a train
// of same-core segments arriving faster than the service rate accumulates
// wait, and the wait survives run boundaries (the model runs while the tap is
// installed, enabled or not).
func TestSoftirqQueueing(t *testing.T) {
	_, h := testHost(2)
	s := NewSampler(h, Config{Interval: sim.Millisecond, Buckets: 10})
	s.Attach()
	s.Enable()

	seg := &netsim.Segment{Size: 9000}
	cost := softirqCost(9000)
	// Ten segments at the same instant on core 0: segment k waits k*cost.
	for i := 0; i < 10; i++ {
		s.Observe(sim.Microsecond, 0, netsim.Ingress, seg, 0)
	}
	r := s.Read()
	tot := r.Totals(netsim.Ingress)
	if tot[0] != 1 {
		t.Fatalf("first segment of an idle core should see no wait; totals %v", tot)
	}
	if got := tot[Bin(9*cost)]; got == 0 {
		t.Fatalf("queued segments did not accumulate wait (cost %v, totals %v)", cost, tot)
	}
	// A different core has its own queue: no wait.
	before := s.busyUntil[1]
	if before != 0 {
		t.Fatalf("core 1 horizon %v before any traffic", before)
	}

	// The horizon persists across Enable: the queue is continuous state.
	horizon := s.busyUntil[0]
	s.Enable()
	if s.busyUntil[0] != horizon {
		t.Fatal("Enable reset the soft-irq horizon; queue state must be continuous")
	}
}

// TestInjectDeliveryTap drives real segments through the host path and
// checks the tap measures Inject→delivery time, including a soft-irq stall
// hold.
func TestInjectDeliveryTap(t *testing.T) {
	eng, h := testHost(1)
	delivered := 0
	h.SetProtocolHandler(func(seg *netsim.Segment) { delivered++ })
	s := NewSampler(h, Config{Interval: sim.Millisecond, Buckets: 100})
	s.Attach()
	s.Enable()

	mk := func() *netsim.Segment {
		return &netsim.Segment{Flow: netsim.FlowKey{Src: 7, Dst: 1, SrcPort: 9, DstPort: 80}, Size: 1500}
	}
	eng.At(sim.Millisecond, func() { h.Inject(mk()) })
	// Stall the host, inject during the stall: delivery happens at stall end,
	// and the measured span must include the hold.
	eng.At(2*sim.Millisecond, func() { h.Stall(5 * sim.Millisecond) })
	eng.At(3*sim.Millisecond, func() { h.Inject(mk()) })
	eng.Run()

	if delivered != 2 {
		t.Fatalf("delivered %d segments, want 2", delivered)
	}
	r := s.Read()
	tot := r.Totals(netsim.Ingress)
	// The stalled segment was held 4 ms (injected t=3ms, flushed t=7ms).
	if got := tot[Bin(4*sim.Millisecond)]; got != 1 {
		t.Fatalf("stall hold not measured: totals %v", tot)
	}
}

func TestCrashTruncation(t *testing.T) {
	eng, h := testHost(1)
	s := NewSampler(h, Config{Interval: sim.Millisecond, Buckets: 10})
	s.Attach()
	s.Enable()

	seg := &netsim.Segment{Size: 1500}
	eng.At(sim.Millisecond, func() {
		s.Observe(eng.Now(), 0, netsim.Ingress, seg, 5*sim.Microsecond)
	})
	eng.At(3500*sim.Microsecond, func() {
		s.Observe(eng.Now(), 0, netsim.Ingress, seg, 5*sim.Microsecond)
	})
	eng.At(4*sim.Millisecond, func() { h.Crash(10 * sim.Millisecond) })
	eng.Run()

	if s.Attached() {
		t.Fatal("sampler still attached after crash")
	}
	if h.StackTapInstalled() {
		t.Fatal("tap survived the crash")
	}
	r := s.Read()
	if !r.Truncated {
		t.Fatal("run not truncated")
	}
	if r.ValidBuckets != 3 {
		t.Fatalf("ValidBuckets = %d, want 3 (crash at +3 ms)", r.ValidBuckets)
	}
	// Bucket 0 (first segment) survives; bucket 2 (second) too; nothing past
	// the truncation.
	if r.Bucket(netsim.Ingress, 0)[Bin(5*sim.Microsecond)] != 1 {
		t.Fatal("pre-crash bucket lost")
	}
	var tail uint64
	for b := r.ValidBuckets; b < r.Buckets; b++ {
		for _, v := range r.Bucket(netsim.Ingress, b) {
			tail += uint64(v)
		}
	}
	if tail != 0 {
		t.Fatalf("%d counts past the truncation point", tail)
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

func TestMemoryFootprint(t *testing.T) {
	_, h := testHost(4)
	s := NewSampler(h, Config{})
	// 4 cores × 2 dirs × 2000 buckets × 18 bins × 4 bytes = 1.152 MB — the
	// instrument stays lighter than Millisampler's ≈3.6 MB.
	if got := s.MemoryFootprint(); got != 4*2*2000*18*4 {
		t.Fatalf("footprint %d", got)
	}
}
