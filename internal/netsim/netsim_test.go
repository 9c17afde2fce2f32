package netsim

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/sim"
)

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{Src: 1, Dst: 2, SrcPort: 100, DstPort: 200}
	r := k.Reverse()
	if r.Src != 2 || r.Dst != 1 || r.SrcPort != 200 || r.DstPort != 100 {
		t.Errorf("Reverse() = %v", r)
	}
	if r.Reverse() != k {
		t.Error("double reverse is not identity")
	}
}

func TestFlowKeyHashSpread(t *testing.T) {
	seen := make(map[uint64]bool)
	for src := HostID(0); src < 16; src++ {
		for port := uint16(0); port < 64; port++ {
			h := FlowKey{Src: src, Dst: 99, SrcPort: port, DstPort: 443}.Hash()
			seen[h] = true
		}
	}
	if len(seen) != 16*64 {
		t.Errorf("hash collisions: %d unique of %d", len(seen), 16*64)
	}
}

func TestSegmentPayload(t *testing.T) {
	s := &Segment{Size: HeaderBytes + 1000}
	if s.Payload() != 1000 {
		t.Errorf("Payload() = %d", s.Payload())
	}
	ack := &Segment{Size: HeaderBytes, Flags: FlagACK}
	if ack.Payload() != 0 {
		t.Errorf("ACK Payload() = %d", ack.Payload())
	}
	tiny := &Segment{Size: 10}
	if tiny.Payload() != 0 {
		t.Errorf("undersized Payload() = %d", tiny.Payload())
	}
}

// TestSegmentSize pins the segment at nine words: the socket slots live in
// the padding after Flags, so every SegmentPool.Get zeroes no more than it
// did before they existed.
func TestSegmentSize(t *testing.T) {
	if got := unsafe.Sizeof(Segment{}); got != 72 {
		t.Errorf("Segment is %d bytes, want 72", got)
	}
}

func TestLinkSerialization(t *testing.T) {
	eng := sim.NewEngine()
	// 8 Gbps: 1000 bytes = 8000 bits take 1 µs.
	l := NewLink(eng, 8_000_000_000, 10*sim.Microsecond)
	var arrived []sim.Time
	for i := 0; i < 3; i++ {
		l.Send(&Segment{Size: 1000}, func(*Segment) { arrived = append(arrived, eng.Now()) })
	}
	eng.Run()
	want := []sim.Time{11 * sim.Microsecond, 12 * sim.Microsecond, 13 * sim.Microsecond}
	for i, w := range want {
		if arrived[i] != w {
			t.Errorf("segment %d arrived at %v, want %v", i, arrived[i], w)
		}
	}
}

func TestLinkInfiniteRate(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, 0, sim.Microsecond)
	var at sim.Time
	l.Send(&Segment{Size: 1 << 20}, func(*Segment) { at = eng.Now() })
	eng.Run()
	if at != sim.Microsecond {
		t.Errorf("infinite-rate link delivered at %v, want prop delay only", at)
	}
}

func TestLinkBacklog(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, 8_000_000_000, 0)
	if l.Backlog() != 0 {
		t.Error("idle link has backlog")
	}
	l.Send(&Segment{Size: 1000}, func(*Segment) {})
	if l.Backlog() != sim.Microsecond {
		t.Errorf("Backlog() = %v, want 1µs", l.Backlog())
	}
}

// TestLinkTransmitCommitsWithoutScheduling: Transmit returns the instants
// Send would deliver at, charges the link the same way, and leaves the event
// queue alone — the caller owns what happens then.
func TestLinkTransmitCommitsWithoutScheduling(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, 8_000_000_000, 10*sim.Microsecond)
	for i, want := range []sim.Time{11 * sim.Microsecond, 12 * sim.Microsecond} {
		if at, ok := l.Transmit(&Segment{Size: 1000}); !ok || at != want {
			t.Errorf("Transmit %d = %v,%v, want %v,true", i, at, ok, want)
		}
	}
	if eng.Pending() != 0 {
		t.Errorf("Transmit scheduled %d events", eng.Pending())
	}
	if l.TxBytes != 2000 || l.Backlog() != 2*sim.Microsecond {
		t.Errorf("TxBytes = %d, Backlog = %v", l.TxBytes, l.Backlog())
	}
	l.DropRate = 1
	if _, ok := l.Transmit(&Segment{Size: 1000}); ok || l.Drops != 1 || l.TxBytes != 2000 {
		t.Errorf("lossy Transmit ok=%v Drops=%d TxBytes=%d", ok, l.Drops, l.TxBytes)
	}
}

// TestHostSendHandsForwarderWireTime: Send calls the forwarder at once, with
// the NIC's wire time, instead of spending an event to get there.
func TestHostSendHandsForwarderWireTime(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, HostConfig{ID: 1, LinkRateBps: 8_000_000_000})
	var got []sim.Time
	h.SetForwarder(forwardRecorder{&got})
	h.Send(&Segment{Size: 1000})
	h.Send(&Segment{Size: 1000})
	if len(got) != 2 || got[0] != sim.Microsecond || got[1] != 2*sim.Microsecond {
		t.Errorf("forwarder saw %v before any event ran, want [1µs 2µs]", got)
	}
	if eng.Pending() != 0 {
		t.Errorf("Send scheduled %d events of its own", eng.Pending())
	}
}

type forwardRecorder struct{ at *[]sim.Time }

func (f forwardRecorder) Forward(_ *sim.Engine, at sim.Time, _ *Segment) { *f.at = append(*f.at, at) }

func TestHostFilterAndHandlerOrder(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, HostConfig{ID: 1})
	var calls []string
	h.AttachIngress(filterFunc(func(sim.Time, Direction, *Segment) { calls = append(calls, "filter") }))
	h.SetProtocolHandler(func(*Segment) { calls = append(calls, "handler") })
	h.Inject(&Segment{Size: 100})
	if len(calls) != 2 || calls[0] != "filter" || calls[1] != "handler" {
		t.Errorf("call order = %v", calls)
	}
}

func TestHostDetachStopsFilter(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, HostConfig{ID: 1})
	count := 0
	f := &countingFilter{n: &count}
	h.AttachIngress(f)
	h.Inject(&Segment{Size: 100})
	h.DetachIngress(f)
	h.Inject(&Segment{Size: 100})
	if count != 1 {
		t.Errorf("filter ran %d times, want 1", count)
	}
}

func TestHostRSSStableAndBounded(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, HostConfig{ID: 1, Cores: 4})
	f := func(src uint16, dst uint16) bool {
		seg := &Segment{Flow: FlowKey{Src: 5, Dst: 1, SrcPort: src, DstPort: dst}}
		c1 := h.RSSCore(seg)
		c2 := h.RSSCore(seg)
		return c1 == c2 && c1 >= 0 && c1 < 4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHostRSSUsesAllCores(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, HostConfig{ID: 1, Cores: 4})
	cores := make(map[int]bool)
	for p := uint16(0); p < 256; p++ {
		cores[h.RSSCore(&Segment{Flow: FlowKey{Src: 2, Dst: 1, SrcPort: p, DstPort: 80}})] = true
	}
	if len(cores) != 4 {
		t.Errorf("RSS used %d of 4 cores", len(cores))
	}
}

func TestHostSendThroughNIC(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, HostConfig{ID: 1, LinkRateBps: 8_000_000_000})
	var got *Segment
	h.SetForwarder(ForwarderFunc(func(s *Segment) { got = s }))
	sent := &Segment{Size: 1000, Flow: FlowKey{Src: 1, Dst: 2}}
	h.Send(sent)
	eng.Run()
	if got != sent {
		t.Fatal("forwarder did not receive the segment")
	}
	if eng.Now() != sim.Microsecond {
		t.Errorf("delivery at %v, want 1µs serialization", eng.Now())
	}
	if h.TxBytes != 1000 {
		t.Errorf("TxBytes = %d", h.TxBytes)
	}
}

func TestHostSendWithoutForwarderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Send without forwarder did not panic")
		}
	}()
	eng := sim.NewEngine()
	NewHost(eng, HostConfig{ID: 1}).Send(&Segment{Size: 10})
}

type filterFunc func(now sim.Time, dir Direction, seg *Segment)

func (f filterFunc) Handle(now sim.Time, dir Direction, seg *Segment) {
	f(now, dir, seg)
}

type countingFilter struct{ n *int }

func (c *countingFilter) Handle(sim.Time, Direction, *Segment) { *c.n++ }

func TestGROMergesInOrderSegments(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, HostConfig{ID: 1})
	var delivered []*Segment
	h.SetProtocolHandler(func(s *Segment) { delivered = append(delivered, s) })
	h.EnableGRO(20 * sim.Microsecond)

	flow := FlowKey{Src: 2, Dst: 1, SrcPort: 9, DstPort: 80}
	seq := int64(0)
	for i := 0; i < 3; i++ {
		h.Inject(&Segment{Flow: flow, Seq: seq, Size: HeaderBytes + 1000})
		seq += 1000
	}
	eng.Run() // fires the flush timer
	if len(delivered) != 1 {
		t.Fatalf("delivered %d segments, want 1 merged", len(delivered))
	}
	if got := delivered[0].Payload(); got != 3000 {
		t.Errorf("merged payload = %d, want 3000", got)
	}
}

func TestGROFlushesAtMax(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, HostConfig{ID: 1})
	var delivered []*Segment
	h.SetProtocolHandler(func(s *Segment) { delivered = append(delivered, s) })
	h.EnableGRO(sim.Second) // timer effectively never fires

	flow := FlowKey{Src: 2, Dst: 1, SrcPort: 9, DstPort: 80}
	seq := int64(0)
	total := 0
	for total < 2*GROMaxBytes {
		pl := DefaultMSS
		h.Inject(&Segment{Flow: flow, Seq: seq, Size: HeaderBytes + pl})
		seq += int64(pl)
		total += HeaderBytes + pl
	}
	if len(delivered) == 0 {
		t.Fatal("GRO never flushed despite exceeding max size")
	}
	for _, s := range delivered {
		if s.Size > GROMaxBytes {
			t.Errorf("merged segment %d bytes exceeds GRO max", s.Size)
		}
	}
}

func TestGRODoesNotMergeRetxOrControl(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, HostConfig{ID: 1})
	var delivered []*Segment
	h.SetProtocolHandler(func(s *Segment) { delivered = append(delivered, s) })
	h.EnableGRO(10 * sim.Microsecond)

	flow := FlowKey{Src: 2, Dst: 1, SrcPort: 9, DstPort: 80}
	h.Inject(&Segment{Flow: flow, Seq: 0, Size: HeaderBytes + 500})
	h.Inject(&Segment{Flow: flow, Seq: 500, Size: HeaderBytes + 500, Flags: FlagRetx})
	eng.Run()
	if len(delivered) != 2 {
		t.Fatalf("delivered %d segments, want 2 (retx must not merge)", len(delivered))
	}
	var sawRetx bool
	for _, s := range delivered {
		if s.Is(FlagRetx) {
			sawRetx = true
			if s.Payload() != 500 {
				t.Errorf("retx segment payload = %d, want 500", s.Payload())
			}
		}
	}
	if !sawRetx {
		t.Error("retransmit flag lost through GRO")
	}
}

func TestGROPreservesTotalBytes(t *testing.T) {
	f := func(sizes []uint16) bool {
		eng := sim.NewEngine()
		h := NewHost(eng, HostConfig{ID: 1})
		var gotPayload int64
		h.SetProtocolHandler(func(s *Segment) { gotPayload += int64(s.Payload()) })
		h.EnableGRO(5 * sim.Microsecond)
		flow := FlowKey{Src: 2, Dst: 1, SrcPort: 9, DstPort: 80}
		var want int64
		seq := int64(0)
		for _, raw := range sizes {
			pl := int(raw%uint16(DefaultMSS)) + 1
			h.Inject(&Segment{Flow: flow, Seq: seq, Size: HeaderBytes + pl})
			seq += int64(pl)
			want += int64(pl)
		}
		eng.Run()
		return gotPayload == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGROFlushOnOutOfOrder(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, HostConfig{ID: 1})
	var delivered []*Segment
	h.SetProtocolHandler(func(s *Segment) { delivered = append(delivered, s) })
	h.EnableGRO(10 * sim.Microsecond)

	flow := FlowKey{Src: 2, Dst: 1, SrcPort: 9, DstPort: 80}
	h.Inject(&Segment{Flow: flow, Seq: 0, Size: HeaderBytes + 500})
	h.Inject(&Segment{Flow: flow, Seq: 9000, Size: HeaderBytes + 500}) // gap
	eng.Run()
	if len(delivered) != 2 {
		t.Fatalf("delivered %d, want 2 separate segments for a sequence gap", len(delivered))
	}
}

// TestGROStopsFlushTimer: every flush and a crash stop the merge's timer on
// the spot, so the engine holds one event per held merge and nothing else,
// before anything runs. Checked on a size-cap flush, whose 1 s hold waits in
// the heap, on a sequence-gap flush and on a crash with merges held.
func TestGROStopsFlushTimer(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, HostConfig{ID: 1})
	h.SetProtocolHandler(func(*Segment) {})
	h.EnableGRO(sim.Second)
	pending := func(what string, want int) {
		t.Helper()
		if got := eng.Pending(); got != want {
			t.Fatalf("after %s: %d events pending, want %d", what, got, want)
		}
	}

	// The first segment leaves room for exactly seven full ones.
	capped := FlowKey{Src: 2, Dst: 1, SrcPort: 9, DstPort: 80}
	first := GROMaxBytes - 7*DefaultMSS
	h.Inject(&Segment{Flow: capped, Seq: 0, Size: first})
	pending("holding one merge", 1)
	for i := 0; i < 7; i++ {
		h.Inject(&Segment{Flow: capped, Seq: int64(first-HeaderBytes) + int64(i)*DefaultMSS, Size: HeaderBytes + DefaultMSS})
	}
	if len(h.gro.pending) != 0 {
		t.Fatalf("merge reached %d bytes without a size-cap flush", GROMaxBytes)
	}
	pending("the size-cap flush", 0)

	gapped := FlowKey{Src: 3, Dst: 1, SrcPort: 9, DstPort: 80}
	h.Inject(&Segment{Flow: gapped, Seq: 0, Size: HeaderBytes + 500})
	h.Inject(&Segment{Flow: gapped, Seq: 9000, Size: HeaderBytes + 500})
	pending("the sequence-gap flush", 1)

	h.Inject(&Segment{Flow: capped, Seq: 1 << 20, Size: HeaderBytes + 500})
	pending("holding two merges", 2)
	h.Crash(sim.Millisecond)
	pending("the crash (its reboot only)", 1)
}
