package netsim

import (
	"testing"

	"repro/internal/sim"
)

func TestStallHoldsAndFlushes(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, HostConfig{ID: 1})
	var deliveredAt []sim.Time
	h.SetProtocolHandler(func(*Segment) { deliveredAt = append(deliveredAt, eng.Now()) })

	h.Stall(10 * sim.Millisecond)
	for i := 0; i < 5; i++ {
		at := sim.Time(i+1) * sim.Millisecond
		eng.At(at, func() { h.Inject(&Segment{Size: 100, Flow: FlowKey{Src: 2, Dst: 1}}) })
	}
	eng.Run()
	if len(deliveredAt) != 5 {
		t.Fatalf("delivered %d of 5 stalled segments", len(deliveredAt))
	}
	for _, at := range deliveredAt {
		if at != 10*sim.Millisecond {
			t.Errorf("stalled segment delivered at %v, want flush at 10ms", at)
		}
	}
}

func TestStallProducesApparentBurst(t *testing.T) {
	// The §4.6 artifact: during a stall the sampler-visible byte stream is
	// silent, then everything lands in one bucket.
	eng := sim.NewEngine()
	h := NewHost(eng, HostConfig{ID: 1})
	perMsBytes := map[int64]int{}
	h.SetProtocolHandler(func(s *Segment) {
		perMsBytes[int64(eng.Now()/sim.Millisecond)] += s.Size
	})
	// Steady stream: 1 segment per 250µs.
	for i := 0; i < 40; i++ {
		at := sim.Time(i) * 250 * sim.Microsecond
		eng.At(at, func() { h.Inject(&Segment{Size: 1000, Flow: FlowKey{Src: 2, Dst: 1}}) })
	}
	eng.At(2*sim.Millisecond, func() { h.Stall(5 * sim.Millisecond) })
	eng.Run()
	// Milliseconds 3..6 silent, ms 7 carries the burst.
	for ms := int64(3); ms <= 6; ms++ {
		if perMsBytes[ms] != 0 {
			t.Errorf("ms %d saw %d bytes during stall", ms, perMsBytes[ms])
		}
	}
	if perMsBytes[7] < 5*4*1000 {
		t.Errorf("flush bucket has %d bytes, want the stalled backlog", perMsBytes[7])
	}
}

func TestStallExtendOnly(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, HostConfig{ID: 1})
	n := 0
	h.SetProtocolHandler(func(*Segment) { n++ })
	h.Stall(10 * sim.Millisecond)
	h.Stall(2 * sim.Millisecond) // shorter: must not shorten the stall
	eng.At(5*sim.Millisecond, func() { h.Inject(&Segment{Size: 10}) })
	eng.RunUntil(8 * sim.Millisecond)
	if n != 0 {
		t.Error("stall was shortened by a later, shorter stall")
	}
	eng.RunUntil(11 * sim.Millisecond)
	if n != 1 {
		t.Error("segment lost after stall")
	}
}

func TestNICDropRate(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, HostConfig{ID: 1})
	h.NICDropRate = 0.5
	got := 0
	h.SetProtocolHandler(func(*Segment) { got++ })
	const n = 10000
	for i := 0; i < n; i++ {
		h.Inject(&Segment{Size: 100, Flow: FlowKey{Src: 2, Dst: 1, SrcPort: uint16(i)}})
	}
	if h.NICDrops == 0 || got == 0 {
		t.Fatalf("drops=%d delivered=%d", h.NICDrops, got)
	}
	if int64(got)+h.NICDrops != n {
		t.Errorf("conservation: %d + %d != %d", got, h.NICDrops, n)
	}
	frac := float64(h.NICDrops) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("drop fraction %v, want ~0.5", frac)
	}
}

func TestLinkDropRate(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, 0, 0)
	l.DropRate = 0.3
	got := 0
	for i := 0; i < 10000; i++ {
		l.Send(&Segment{Size: 100}, func(*Segment) { got++ })
	}
	eng.Run()
	if got+int(l.Drops) != 10000 {
		t.Errorf("conservation: %d + %d", got, l.Drops)
	}
	frac := float64(l.Drops) / 10000
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("drop fraction %v, want ~0.3", frac)
	}
}

func TestCrashDropsTrafficAndReboots(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, HostConfig{ID: 1})
	h.SetForwarder(ForwarderFunc(func(*Segment) {}))
	got := 0
	h.SetProtocolHandler(func(*Segment) { got++ })

	// 1 segment per ms for 30 ms; crash at 10 ms for 10 ms.
	for i := 0; i < 30; i++ {
		at := sim.Time(i) * sim.Millisecond
		eng.At(at, func() { h.Inject(&Segment{Size: 100, Flow: FlowKey{Src: 2, Dst: 1}}) })
	}
	eng.At(10*sim.Millisecond, func() { h.Crash(10 * sim.Millisecond) })
	eng.Run()

	if h.Down() {
		t.Fatal("host still down after outage elapsed")
	}
	if h.Boots != 1 {
		t.Errorf("Boots = %d, want 1", h.Boots)
	}
	// Segments at 10..19 ms dropped (crash instant inclusive), rest delivered.
	if got != 20 {
		t.Errorf("delivered %d segments, want 20", got)
	}
	if h.CrashDrops != 10 {
		t.Errorf("CrashDrops = %d, want 10", h.CrashDrops)
	}
}

func TestCrashLosesStalledSegmentsAndFilters(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, HostConfig{ID: 1})
	h.SetForwarder(ForwarderFunc(func(*Segment) {}))
	calls := 0
	h.AttachIngress(filterFunc(func(sim.Time, Direction, *Segment) { calls++ }))

	h.Stall(20 * sim.Millisecond)
	eng.At(sim.Millisecond, func() { h.Inject(&Segment{Size: 100, Flow: FlowKey{Src: 2, Dst: 1}}) })
	hooked := false
	h.OnCrash(func() { hooked = true })
	eng.At(5*sim.Millisecond, func() { h.Crash(2 * sim.Millisecond) })
	// After reboot, traffic flows again but the filter chain is gone.
	eng.At(30*sim.Millisecond, func() { h.Inject(&Segment{Size: 100, Flow: FlowKey{Src: 2, Dst: 1}}) })
	eng.Run()

	if !hooked {
		t.Error("crash hook did not fire")
	}
	if calls != 0 {
		t.Errorf("filter ran %d times; stalled segment should be lost and chains cleared", calls)
	}
	if h.CrashDrops != 1 {
		t.Errorf("CrashDrops = %d, want 1 (the stalled segment)", h.CrashDrops)
	}
	if h.RxBytes != 100 {
		t.Errorf("RxBytes = %d, want only the post-reboot segment counted", h.RxBytes)
	}
}

func TestCrashExtendOnly(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, HostConfig{ID: 1})
	eng.At(0, func() { h.Crash(10 * sim.Millisecond) })
	eng.At(1*sim.Millisecond, func() { h.Crash(2 * sim.Millisecond) }) // shorter: no-op
	eng.At(2*sim.Millisecond, func() { h.Crash(20 * sim.Millisecond) })
	eng.RunUntil(15 * sim.Millisecond)
	if !h.Down() {
		t.Fatal("outage was shortened by an overlapping crash")
	}
	eng.RunUntil(23 * sim.Millisecond)
	if h.Down() {
		t.Fatal("host never rebooted")
	}
	if h.Boots != 1 {
		t.Errorf("Boots = %d, want 1 (overlapping crashes are one outage)", h.Boots)
	}
}
