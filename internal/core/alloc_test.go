package core

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// allocHost builds a host+sampler pair and a working set of segments for the
// per-packet allocation assertions (§4.3: the filter must add no allocation
// or GC pressure to the kernel path it models).
func allocHost(cfg Config) (*Sampler, []*netsim.Segment) {
	eng := sim.NewEngine()
	h := netsim.NewHost(eng, netsim.HostConfig{ID: 1, Cores: 4})
	h.SetForwarder(netsim.ForwarderFunc(func(*netsim.Segment) {}))
	s := NewSampler(h, cfg)
	segs := make([]*netsim.Segment, 64)
	for i := range segs {
		segs[i] = &netsim.Segment{
			Flow: netsim.FlowKey{Src: 7, Dst: 1, SrcPort: uint16(i), DstPort: 80},
			Size: 1500,
		}
		if i%5 == 0 {
			segs[i].Flags |= netsim.FlagCE
		}
		if i%17 == 0 {
			segs[i].Flags |= netsim.FlagRetx
		}
	}
	return s, segs
}

// TestSamplerHandleZeroAlloc asserts the enabled hot path performs zero heap
// allocations per packet.
func TestSamplerHandleZeroAlloc(t *testing.T) {
	s, segs := allocHost(DefaultConfig())
	s.Enable()
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		s.Handle(sim.Time(i)*sim.Microsecond, i&3, netsim.Ingress, segs[i&63])
		i++
	})
	if allocs != 0 {
		t.Fatalf("enabled Handle allocates %.2f objects per packet, want 0", allocs)
	}
}

// TestSamplerDisabledZeroAlloc asserts the installed-but-disabled fast path
// (the 7 ns case of the §4.3 microbenchmark) also allocates nothing.
func TestSamplerDisabledZeroAlloc(t *testing.T) {
	s, segs := allocHost(DefaultConfig())
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		s.Handle(sim.Time(i)*sim.Microsecond, i&3, netsim.Ingress, segs[i&63])
		i++
	})
	if allocs != 0 {
		t.Fatalf("disabled Handle allocates %.2f objects per packet, want 0", allocs)
	}
	if s.DisabledCalls == 0 {
		t.Fatal("disabled path was never exercised")
	}
}

// TestObserveZeroAlloc asserts the host-stack tap's enabled hot path
// (Handle, span included) performs zero heap allocations per segment, in
// both directions.
func TestObserveZeroAlloc(t *testing.T) {
	ms, segs := allocHost(Config{})
	s := NewStackSampler(ms.host, Config{})
	s.Enable()
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		dir := netsim.Direction(i & 1)
		s.Handle(sim.Time(i)*sim.Microsecond, dir, segs[i&63])
		i++
	})
	if allocs != 0 {
		t.Fatalf("enabled Handle allocates %.2f objects per segment, want 0", allocs)
	}
}

// TestObserveDisabledZeroAlloc asserts the tap's installed-but-disabled fast
// path (tap attached between runs) also allocates nothing.
func TestObserveDisabledZeroAlloc(t *testing.T) {
	ms, segs := allocHost(Config{})
	s := NewStackSampler(ms.host, Config{})
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		dir := netsim.Direction(i & 1)
		s.Handle(sim.Time(i)*sim.Microsecond, dir, segs[i&63])
		i++
	})
	if allocs != 0 {
		t.Fatalf("disabled Handle allocates %.2f objects per segment, want 0", allocs)
	}
	if s.DisabledCalls == 0 {
		t.Fatal("disabled path was never exercised")
	}
}
