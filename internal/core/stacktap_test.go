package core

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/hoststack"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestObserveAndRead(t *testing.T) {
	_, h := bareHost(2)
	s := NewStackSampler(h, Config{Interval: sim.Millisecond, Buckets: 4})
	s.Attach()
	s.Enable()

	seg := &netsim.Segment{Size: 1500}
	// Bucket 0: two ingress observations, 10 µs and 3 µs; one egress, 100 µs.
	s.observe(0, 0, netsim.Ingress, seg, 10*sim.Microsecond)
	s.observe(100*sim.Microsecond, 1, netsim.Ingress, seg, 3*sim.Microsecond)
	s.observe(200*sim.Microsecond, 0, netsim.Egress, seg, 100*sim.Microsecond)
	// Bucket 2: one ingress at 2 ms latency.
	s.observe(2500*sim.Microsecond, 1, netsim.Ingress, seg, 2*sim.Millisecond)

	r := s.Read()
	if !r.Started {
		t.Fatal("run not started")
	}
	b0 := r.Bucket(netsim.Ingress, 0)
	if b0[hoststack.Bin(10*sim.Microsecond)] != 1 || b0[hoststack.Bin(3*sim.Microsecond)] != 1 {
		t.Fatalf("bucket 0 ingress bins wrong: %v", b0)
	}
	if r.Bucket(netsim.Egress, 0)[hoststack.Bin(100*sim.Microsecond)] != 1 {
		t.Fatalf("bucket 0 egress bins wrong: %v", r.Bucket(netsim.Egress, 0))
	}
	if r.Bucket(netsim.Ingress, 2)[hoststack.Bin(2*sim.Millisecond)] != 1 {
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
	s.observe(10*sim.Millisecond, 0, netsim.Ingress, seg, sim.Microsecond)
	if s.Enabled() {
		t.Fatal("run did not self-clear past the window")
	}
	if s.DisabledCalls != 0 {
		t.Fatalf("DisabledCalls = %d before any disabled-path call", s.DisabledCalls)
	}
	s.observe(11*sim.Millisecond, 0, netsim.Ingress, seg, sim.Microsecond)
	if s.DisabledCalls != 1 {
		t.Fatalf("DisabledCalls = %d, want 1", s.DisabledCalls)
	}
}

// TestSoftirqQueueing exercises the virtual per-core service model: a train
// of same-core segments arriving faster than the service rate accumulates
// wait, and the wait survives run boundaries (the model runs while the tap is
// installed, enabled or not).
func TestSoftirqQueueing(t *testing.T) {
	_, h := bareHost(2)
	s := NewStackSampler(h, Config{Interval: sim.Millisecond, Buckets: 10})
	s.Attach()
	s.Enable()

	seg := &netsim.Segment{Size: 9000}
	cost := softirqCost(9000)
	// Ten segments at the same instant on core 0: segment k waits k*cost.
	for i := 0; i < 10; i++ {
		s.observe(sim.Microsecond, 0, netsim.Ingress, seg, 0)
	}
	r := s.Read()
	tot := r.Totals(netsim.Ingress)
	if tot[0] != 1 {
		t.Fatalf("first segment of an idle core should see no wait; totals %v", tot)
	}
	if got := tot[hoststack.Bin(9*cost)]; got == 0 {
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
	eng, h := bareHost(1)
	delivered := 0
	h.SetProtocolHandler(func(seg *netsim.Segment) { delivered++ })
	s := NewStackSampler(h, Config{Interval: sim.Millisecond, Buckets: 100})
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
	if got := tot[hoststack.Bin(4*sim.Millisecond)]; got != 1 {
		t.Fatalf("stall hold not measured: totals %v", tot)
	}
}

// TestSendEgressTap sends two segments back to back through Host.Send: the
// first finds the NIC idle, the second waits behind the first's
// serialization. The span must be read before the NIC commits the segment.
func TestSendEgressTap(t *testing.T) {
	_, h := bareHost(1)
	s := NewStackSampler(h, Config{Interval: sim.Millisecond, Buckets: 10})
	s.Attach()
	s.Enable()
	h.Send(seg(1, 9, 9000, 0))
	h.Send(seg(1, 9, 9000, 0))

	tot := s.Read().Totals(netsim.Egress)
	ser := h.NIC().SerializationDelay(9000)
	if tot[hoststack.Bin(0)] != 1 || tot[hoststack.Bin(ser)] != 1 {
		t.Fatalf("egress spans not {0, %v}: totals %v", ser, tot)
	}
}

func TestCrashTruncation(t *testing.T) {
	eng, h := bareHost(1)
	s := NewStackSampler(h, Config{Interval: sim.Millisecond, Buckets: 10})
	s.Attach()
	s.Enable()

	seg := &netsim.Segment{Size: 1500}
	eng.At(sim.Millisecond, func() {
		s.observe(eng.Now(), 0, netsim.Ingress, seg, 5*sim.Microsecond)
	})
	eng.At(3500*sim.Microsecond, func() {
		s.observe(eng.Now(), 0, netsim.Ingress, seg, 5*sim.Microsecond)
	})
	eng.At(4*sim.Millisecond, func() { h.Crash(10 * sim.Millisecond) })
	eng.Run()

	if s.Attached() {
		t.Fatal("sampler still attached after crash")
	}
	// The crash took the tap off the chains: a segment delivered after the
	// reboot must not reach it, not even on the disabled path.
	h.Inject(&netsim.Segment{Size: 1500})
	if s.DisabledCalls != 0 {
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
	if r.Bucket(netsim.Ingress, 0)[hoststack.Bin(5*sim.Microsecond)] != 1 {
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

func TestMemoryFootprint(t *testing.T) {
	_, h := bareHost(4)
	s := NewStackSampler(h, Config{})
	// 4 cores × 2 dirs × 2000 buckets × 18 bins × 4 bytes = 1.152 MB — the
	// instrument stays lighter than Millisampler's ≈3.6 MB.
	if got := s.MemoryFootprint(); got != 4*2*2000*18*4 {
		t.Fatalf("footprint %d", got)
	}
}

// TestInstrumentsShareRunRules arms Millisampler and the host-stack tap on
// one host, feeds both the same packet times, and checks they agree on every
// run rule: MarkStart, host-clock bucketing with a backward clock step,
// self-clear past the last bucket, the disabled path, and a crash mid-run.
func TestInstrumentsShareRunRules(t *testing.T) {
	eng, h := bareHost(2)
	cfg := Config{Interval: sim.Millisecond, Buckets: 10}
	ms := NewSampler(h, cfg)
	tap := NewStackSampler(h, cfg)
	feed := func(now sim.Time) {
		ms.Handle(now, 0, netsim.Ingress, seg(7, 1, 100, 0))
		tap.observe(now, 0, netsim.Ingress, seg(7, 1, 100, 0), sim.Microsecond)
	}
	// state is the run state both instruments must agree on at every step.
	type state struct {
		Started      bool
		StartWall    clock.WallTime
		Truncated    bool
		ValidBuckets int
		Enabled      bool
		Disabled     uint64
	}
	check := func(step string, want state) {
		t.Helper()
		r, hr := ms.Read(), tap.Read()
		got := map[string]state{
			"Sampler":      {r.Started, r.StartWall, r.Truncated, r.ValidBuckets, ms.Enabled(), ms.DisabledCalls},
			"StackSampler": {hr.Started, hr.StartWall, hr.Truncated, hr.ValidBuckets, tap.Enabled(), tap.DisabledCalls},
		}
		for name, g := range got {
			if g != want {
				t.Errorf("%s: %s %+v, want %+v", step, name, g, want)
			}
		}
	}
	ms.Attach()
	tap.Attach()

	// Run 1: origin pinned by MarkStart at 10 ms; a packet stamped 5 ms (a
	// backward clock step) folds into bucket 0; the host crashes at 14.5 ms.
	ms.Enable()
	tap.Enable()
	check("armed", state{Enabled: true})
	eng.At(10*sim.Millisecond, func() {
		ms.MarkStart()
		tap.MarkStart()
		feed(5 * sim.Millisecond)
		feed(12500 * sim.Microsecond)
	})
	eng.At(14500*sim.Microsecond, func() { h.Crash(sim.Millisecond) })
	eng.Run()
	start := clock.WallTime(10 * sim.Millisecond)
	check("crashed", state{Started: true, StartWall: start, Truncated: true, ValidBuckets: 4})
	if in := ms.Read().Series(CtrIn); in[0] != 100 || in[2] != 100 {
		t.Errorf("Sampler buckets 0/2 = %d/%d, want 100/100", in[0], in[2])
	}
	if hr := tap.Read(); hr.Totals(netsim.Ingress)[hoststack.Bin(sim.Microsecond)] != 2 ||
		hr.Bucket(netsim.Ingress, 0)[hoststack.Bin(sim.Microsecond)] != 1 {
		t.Error("StackSampler lost the clamped or the in-window segment")
	}
	if ms.Attached() || tap.Attached() {
		t.Error("an instrument survived the crash attached")
	}
	feed(20 * sim.Millisecond)
	check("after crash", state{Started: true, StartWall: start, Truncated: true, ValidBuckets: 4, Disabled: 1})

	// Run 2: start on the first packet, self-clear past the last bucket (that
	// packet is not a disabled call), then the disabled path.
	ms.Enable()
	tap.Enable()
	start = clock.WallTime(30 * sim.Millisecond)
	feed(30 * sim.Millisecond)
	check("started", state{Started: true, StartWall: start, Enabled: true, Disabled: 1})
	feed(40 * sim.Millisecond)
	check("self-cleared", state{Started: true, StartWall: start, Disabled: 1})
	feed(41 * sim.Millisecond)
	check("disabled", state{Started: true, StartWall: start, Disabled: 2})
}
