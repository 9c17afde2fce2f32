package testbed

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
)

// twoStage is the reference the fused hop replaced: one event when the last
// bit leaves the sender's NIC, and only then a second event one (or two)
// fabric delays later — the routeFromRemote/routeFromUplink chain, rebuilt
// from closures so it shares no code with Rack's egress.
type twoStage struct {
	r      *Rack
	remote bool
}

func (f twoStage) Forward(eng *sim.Engine, at sim.Time, seg *netsim.Segment) {
	eng.At(at, func() { f.onWire(seg) })
}

func (f twoStage) onWire(seg *netsim.Segment) {
	r, d := f.r, FabricDelay
	dst := seg.Flow.Dst
	port, toServer := r.Port(dst)
	toSwitch := func() { r.Switch.ForwardFromFabric(port, seg) }
	switch {
	case seg.Is(netsim.FlagMulticast) || toServer:
		if f.remote {
			r.Eng.After(d, toSwitch)
		} else {
			toSwitch() // hairpin: enqueued at wire time
		}
	case dst >= RemoteIDBase && int(dst-RemoteIDBase) < len(r.Remotes):
		if f.remote {
			d *= 2
		}
		r.Eng.After(d, func() { r.Remotes[dst-RemoteIDBase].Inject(seg) })
	default:
		r.UnroutableDrops++
		r.Pool().Put(seg)
	}
}

// deliveryTrace records every segment any host receives.
type deliveryTrace struct {
	host netsim.HostID
	log  *[]string
}

func (d deliveryTrace) Handle(now sim.Time, _ int, _ netsim.Direction, seg *netsim.Segment) {
	*d.log = append(*d.log, fmt.Sprintf("%d host=%d %v seq=%d ack=%d flags=%#x",
		now, d.host, seg.Flow, seg.Seq, seg.Ack, seg.Flags))
}

// runIncast drives a seeded incast with its ACK stream through r: every
// remote opens a DCTCP connection to every server at t=0 with a 12-segment
// initial window, so each 25G remote NIC starts ~100 µs behind (the backlog
// the fused hop must look through) and the three 12.5G downlinks queue,
// mark and drop at the ToR. A hairpin flow, a remote-to-remote flow and an
// unroutable segment cover the other routes.
func runIncast(r *Rack) (trace []string) {
	hosts := append(append([]*netsim.Host{}, r.Servers...), r.Remotes...)
	for _, h := range hosts {
		h.AttachIngress(deliveryTrace{h.ID, &trace})
	}
	rng := sim.NewRNG(17)
	opts := transport.Options{InitialWindowSegs: 12}
	for _, ep := range r.RemoteEPs {
		for _, s := range r.Servers {
			ep.Connect(s.ID, 80, opts).Send(int64(200_000 + rng.Intn(400_000)))
		}
	}
	r.ServerEPs[0].Connect(r.Servers[1].ID, 81, opts).Send(300_000)
	r.RemoteEPs[0].Connect(r.Remotes[1].ID, 82, opts).Send(100_000)
	r.Remotes[2].Send(&netsim.Segment{Flow: netsim.FlowKey{Src: r.Remotes[2].ID, Dst: 9999}, Size: 100})
	r.Eng.RunUntil(50 * sim.Millisecond)
	return trace
}

// TestFusedHopMatchesTwoStage pins the fused hop to the two-event chain it
// replaced: same arrivals, to the nanosecond and in the same order, hence the
// same queueing, marking and drops.
//
// The one thing fusion changes is the arrival event's seq, assigned at Send
// instead of at wire time. That can reorder it only against an event due at
// the same nanosecond that was scheduled while the segment sat in its NIC,
// i.e. with a delay in [D, D + NIC residency] for fabric delay D = 10 µs.
// finishTx would need a ≥ 15.6 KB segment (MSS 9000 caps a 12.5G
// transmission at 5.8 µs); two arrivals with the same D fall back to Send
// order, which was already the wire-time tiebreak; delayed-ACK and RTO
// timers would need ≥ 390 µs of NIC backlog.
func TestFusedHopMatchesTwoStage(t *testing.T) {
	cfg := RackConfig{Servers: 3, Remotes: 24, Seed: 23}
	fused := NewRack(cfg)
	ref := NewRack(cfg)
	for _, h := range ref.Servers {
		h.SetForwarder(twoStage{r: ref})
	}
	for _, h := range ref.Remotes {
		h.SetForwarder(twoStage{r: ref, remote: true})
	}
	got, want := runIncast(fused), runIncast(ref)

	tot := fused.Switch.Totals()
	if tot.DiscardSegments == 0 || tot.ECNMarkedSegs == 0 {
		t.Fatalf("scenario too light to tell orders apart: totals %+v", tot)
	}
	if len(got) != len(want) {
		t.Errorf("fused rack delivered %d segments, two-stage %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("delivery %d of %d:\n fused     %s\n two-stage %s", i, len(want), got[i], want[i])
		}
	}
	if rt := ref.Switch.Totals(); tot != rt {
		t.Errorf("switch totals: fused %+v, two-stage %+v", tot, rt)
	}
	if fused.UnroutableDrops != 1 || ref.UnroutableDrops != 1 {
		t.Errorf("UnroutableDrops: fused %d, two-stage %d, want 1", fused.UnroutableDrops, ref.UnroutableDrops)
	}
	if ref.Eng.Fired() <= fused.Eng.Fired() {
		t.Errorf("fused rack fired %d events, two-stage %d: nothing was saved", fused.Eng.Fired(), ref.Eng.Fired())
	}
}

// TestOneEventPerHop counts the events a segment costs on each route, with
// no transport (so no timers) on the hosts: one per stateful hop — switch
// admission, queue departure (which delivers into the server), remote-host
// arrival — and none for NIC serialization.
func TestOneEventPerHop(t *testing.T) {
	r := NewRack(RackConfig{Servers: 2, Remotes: 2, Seed: 11})
	server, peer, remote, other := r.Servers[0], r.Servers[1], r.Remotes[0], r.Remotes[1]
	acked := 0
	server.SetProtocolHandler(func(seg *netsim.Segment) {
		if seg.Flow.Src != remote.ID {
			return
		}
		ack := r.Pool().Get()
		ack.Flow = seg.Flow.Reverse()
		ack.Size = netsim.HeaderBytes
		ack.Flags = netsim.FlagACK
		server.Send(ack)
	})
	remote.SetProtocolHandler(func(*netsim.Segment) { acked++ })
	delivered := 0
	count := func(*netsim.Segment) { delivered++ }
	peer.SetProtocolHandler(count)
	other.SetProtocolHandler(count)

	for _, tc := range []struct {
		name     string
		src, dst *netsim.Host
		want     uint64
	}{
		{"remote→server data + ACK", remote, server, 3}, // fabricToSwitch, finishTx, hostInject
		{"hairpin", server, peer, 2},                    // fabricToSwitch, finishTx
		{"remote→remote", remote, other, 1},             // hostInject
	} {
		seg := r.Pool().Get()
		seg.Flow = netsim.FlowKey{Src: tc.src.ID, Dst: tc.dst.ID, SrcPort: 1, DstPort: 2}
		seg.Size = 9066
		before := r.Eng.Fired()
		tc.src.Send(seg)
		r.Eng.RunFor(200 * sim.Microsecond)
		if got := r.Eng.Fired() - before; got != tc.want {
			t.Errorf("%s fired %d events, want %d", tc.name, got, tc.want)
		}
	}
	if acked != 1 || delivered != 2 {
		t.Errorf("acked %d (want 1), delivered %d (want 2)", acked, delivered)
	}
}

// TestRackSendZeroAlloc is the transport-free counterpart of
// transport.TestSteadyStateSendZeroAlloc: Host.Send, the fused arrival on
// every route, and deliver allocate nothing once the pools are warm.
func TestRackSendZeroAlloc(t *testing.T) {
	r := NewRack(RackConfig{Servers: 2, Remotes: 2, Seed: 12})
	delivered := 0
	for _, h := range append(append([]*netsim.Host{}, r.Servers...), r.Remotes...) {
		h.SetProtocolHandler(func(*netsim.Segment) { delivered++ })
	}
	routes := [][2]*netsim.Host{
		{r.Remotes[0], r.Servers[0]},
		{r.Servers[0], r.Remotes[0]},
		{r.Servers[0], r.Servers[1]},
		{r.Remotes[0], r.Remotes[1]},
	}
	round := func() {
		for _, rt := range routes {
			for i := 0; i < 8; i++ {
				seg := r.Pool().Get()
				seg.Flow = netsim.FlowKey{Src: rt[0].ID, Dst: rt[1].ID, SrcPort: uint16(i), DstPort: 2}
				seg.Size = 9066
				rt[0].Send(seg)
			}
		}
		r.Eng.RunFor(200 * sim.Microsecond)
	}
	round() // warm the segment and event pools
	delivered = 0
	const runs = 100
	allocs := testing.AllocsPerRun(runs, round)
	if want := (runs + 1) * len(routes) * 8; delivered != want {
		t.Fatalf("delivered %d segments, want %d", delivered, want)
	}
	if allocs != 0 {
		t.Fatalf("rack send path allocates %.2f objects per round, want 0", allocs)
	}
}
