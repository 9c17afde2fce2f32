package transport

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// wire carries segments to a host one event later, or drops them while cut.
type wire struct {
	to  *netsim.Host
	cut bool
}

func (w *wire) Forward(eng *sim.Engine, at sim.Time, seg *netsim.Segment) {
	if w.cut {
		w.to.Pool().Put(seg)
		return
	}
	netsim.ForwarderFunc(w.to.Inject).Forward(eng, at, seg)
}

// pair is two hosts wired back to back, each with an endpoint: a the
// sender's, b the receiver's.
type pair struct {
	eng  *sim.Engine
	a, b *Endpoint
	ab   *wire
}

func newPair() *pair {
	eng := sim.NewEngine()
	pool := netsim.NewSegmentPool()
	ha := netsim.NewHost(eng, netsim.HostConfig{ID: 1, PropDelay: 2 * sim.Microsecond, Pool: pool})
	hb := netsim.NewHost(eng, netsim.HostConfig{ID: 2, PropDelay: 2 * sim.Microsecond, Pool: pool})
	p := &pair{eng: eng, a: NewEndpoint(ha), b: NewEndpoint(hb), ab: &wire{to: hb}}
	ha.SetForwarder(p.ab)
	hb.SetForwarder(&wire{to: ha})
	return p
}

// transfer connects a to b, moves n bytes and returns both ends.
func (p *pair) transfer(t *testing.T, n int64) (snd, rcv *Conn) {
	t.Helper()
	p.b.OnAccept = func(c *Conn) { rcv = c }
	snd = p.a.Connect(p.b.host.ID, 80, Options{})
	snd.Send(n)
	p.eng.RunFor(50 * sim.Millisecond)
	if rcv == nil || !snd.Done() {
		t.Fatalf("transfer of %d bytes did not complete", n)
	}
	return snd, rcv
}

// TestConnectSkipsLivePorts dials and closes through the whole ephemeral
// port space while the first connection stays open: the dial that wraps onto
// its port must skip it, and the first connection keeps its own ACKs.
func TestConnectSkipsLivePorts(t *testing.T) {
	p := newPair()
	first, _ := p.transfer(t, 64<<10)
	p.ab.cut = true // the dials' SYNs never reach b
	for i := 0; i < 1<<16; i++ {
		c := p.a.Connect(p.b.host.ID, 80, Options{})
		if c.flow == first.flow {
			t.Fatalf("dial %d reuses the open connection's port %d", i, c.flow.SrcPort)
		}
		c.Close()
	}
	p.ab.cut = false
	if n := p.a.ConnCount(); n != 1 {
		t.Fatalf("sender holds %d connections after the dials, want 1", n)
	}
	acked := first.Stats.AckedBytes
	first.Send(64 << 10)
	p.eng.RunFor(50 * sim.Millisecond)
	if !first.Done() || first.Stats.AckedBytes != acked+64<<10 {
		t.Errorf("first connection acked %d more bytes (done %v), want %d", first.Stats.AckedBytes-acked, first.Done(), 64<<10)
	}
}

// TestEarlyDemuxStaleSlot delivers a late data segment and a late ACK of a
// finished connection A, still naming A's slots, after connection B took
// those slots over. The slot hint must not hand them to B: both are ignored
// exactly as the map ignores them.
func TestEarlyDemuxStaleSlot(t *testing.T) {
	p := newPair()
	a, atB := p.transfer(t, 64<<10)
	flow, end, sndSlot, rcvSlot := a.flow, a.sndNxt, a.slot, atB.slot
	a.Close()
	p.eng.RunFor(50 * sim.Millisecond)
	if n := p.a.ConnCount() + p.b.ConnCount(); n != 0 {
		t.Fatalf("%d connections left after A's FIN, want 0", n)
	}
	atB.Close() // the FIN already removed it; this must not free its slot again

	b, atB2 := p.transfer(t, 9000)
	if b.slot != sndSlot || atB2.slot != rcvSlot {
		t.Fatalf("B holds slots %d/%d, want A's freed %d/%d", b.slot, atB2.slot, sndSlot, rcvSlot)
	}
	type state struct {
		snd, rcv       ConnStats
		sndUna, rcvNxt int64
		na, nb         int
	}
	snapshot := func() state {
		return state{b.Stats, atB2.Stats, b.sndUna, atB2.rcvNxt, p.a.ConnCount(), p.b.ConnCount()}
	}
	before, aStats, atBStats := snapshot(), a.Stats, atB.Stats
	p.b.host.Inject(&netsim.Segment{
		Flow: flow, Seq: end - 9000, Size: netsim.HeaderBytes + 9000,
		SrcSock: sndSlot, DstSock: rcvSlot,
	})
	p.a.host.Inject(&netsim.Segment{
		Flow: flow.Reverse(), Ack: end, Size: netsim.HeaderBytes, Flags: netsim.FlagACK,
		SrcSock: rcvSlot, DstSock: sndSlot,
	})
	if after := snapshot(); after != before {
		t.Errorf("late segments of A reached B: %+v, want %+v", after, before)
	}
	if a.Stats != aStats || atB.Stats != atBStats {
		t.Error("late segments of A reached A's removed connections")
	}
}
