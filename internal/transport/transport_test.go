package transport_test

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/transport"
)

func newRack(tb testing.TB, servers int) *testbed.Rack {
	tb.Helper()
	return testbed.NewRack(testbed.RackConfig{Servers: servers, Seed: 42})
}

// oneTransfer runs a single remote->server transfer of n bytes and returns
// sender and receiver connections after the engine settles.
func oneTransfer(tb testing.TB, r *testbed.Rack, n int64) (*transport.Conn, *transport.Conn) {
	tb.Helper()
	var rconn *transport.Conn
	r.ServerEPs[0].OnAccept = func(c *transport.Conn) { rconn = c }
	sconn := r.RemoteEPs[0].Connect(r.Servers[0].ID, 80, transport.Options{})
	sconn.Send(n)
	r.Eng.RunUntil(2 * sim.Second)
	if rconn == nil {
		tb.Fatal("receiver connection never accepted")
	}
	return sconn, rconn
}

func TestHandshakeAndTransfer(t *testing.T) {
	r := newRack(t, 4)
	const n = 1 << 20
	sconn, rconn := oneTransfer(t, r, n)
	if !sconn.Established() {
		t.Fatal("handshake did not complete")
	}
	if !sconn.Done() {
		t.Fatalf("sender not drained: pending=%d inflight=%d", sconn.Pending(), sconn.InflightBytes())
	}
	if rconn.Stats.RecvBytes != n {
		t.Errorf("receiver got %d bytes, want %d", rconn.Stats.RecvBytes, n)
	}
}

// TestEndpointDemuxMirroredPorts connects two rack servers to each other from
// the same port pair: each host then holds a sending and a receiving
// connection with the same peer and the same ports, told apart only by which
// end sends the data. Both transfers must arrive whole, each at its own
// receiver.
func TestEndpointDemuxMirroredPorts(t *testing.T) {
	r := newRack(t, 4)
	a, b := r.ServerEPs[0], r.ServerEPs[1]
	var atA, atB *transport.Conn // receivers
	a.OnAccept = func(c *transport.Conn) { atA = c }
	b.OnAccept = func(c *transport.Conn) { atB = c }
	ab := a.Connect(r.Servers[1].ID, 80, transport.Options{})
	ba := b.Connect(r.Servers[0].ID, 80, transport.Options{})
	if f, g := ab.Flow(), ba.Flow(); f.SrcPort != g.SrcPort || f.DstPort != g.DstPort {
		t.Fatalf("flows %v and %v use different port pairs", f, g)
	}
	const nAB, nBA = 300 << 10, 700 << 10
	ab.Send(nAB)
	ba.Send(nBA)
	r.Eng.RunUntil(sim.Second)
	if atA == nil || atB == nil {
		t.Fatalf("accepted at A: %v, at B: %v; want both", atA != nil, atB != nil)
	}
	if got := a.ConnCount(); got != 2 {
		t.Errorf("A holds %d connections, want 2", got)
	}
	if !ab.Done() || !ba.Done() {
		t.Errorf("senders not drained: A→B %v, B→A %v", ab.Done(), ba.Done())
	}
	if atB.Stats.RecvBytes != nAB || atA.Stats.RecvBytes != nBA {
		t.Errorf("received A→B %d, B→A %d bytes; want %d and %d", atB.Stats.RecvBytes, atA.Stats.RecvBytes, nAB, nBA)
	}
}

func TestThroughputNearLineRate(t *testing.T) {
	r := newRack(t, 4)
	// 2.5 MB at 12.5 Gbps is ~1.6 ms of serialization; allow generous slack
	// for handshake and congestion control ramp.
	const n = 2_500_000
	start := r.Eng.Now()
	sconn, _ := oneTransfer(t, r, n)
	if !sconn.Done() {
		t.Fatal("transfer incomplete")
	}
	elapsed := r.Eng.Now() - start
	_ = elapsed // engine ran to quiescence; check via goodput over sim span below
	// Re-run with explicit timing: find the drain moment.
	r2 := newRack(t, 4)
	var done sim.Time
	s2 := r2.RemoteEPs[0].Connect(r2.Servers[0].ID, 80, transport.Options{})
	s2.OnDrain = func() {
		if done == 0 {
			done = r2.Eng.Now()
		}
	}
	s2.Send(n)
	r2.Eng.RunUntil(sim.Second)
	if done == 0 {
		t.Fatal("transfer did not finish within 1s")
	}
	if done > 20*sim.Millisecond {
		t.Errorf("2.5MB took %v, expected a few ms at 12.5Gbps", done)
	}
}

func TestECNKeepsQueueBounded(t *testing.T) {
	// A single long-lived DCTCP flow against the 120 KB marking threshold
	// should keep the ToR queue in the vicinity of the threshold, far below
	// the DT cap (~1.8 MB for a lone queue).
	r := newRack(t, 4)
	sconn := r.RemoteEPs[0].Connect(r.Servers[0].ID, 80, transport.Options{})
	sconn.Send(1 << 40) // effectively unbounded
	peak := 0
	var probe func()
	probe = func() {
		if q := r.Switch.QueueBytes(0); q > peak {
			peak = q
		}
		if r.Eng.Now() < 100*sim.Millisecond {
			r.Eng.After(100*sim.Microsecond, probe)
		}
	}
	r.Eng.After(0, probe)
	r.Eng.RunUntil(100 * sim.Millisecond)
	if peak == 0 {
		t.Fatal("queue never occupied")
	}
	if peak > 600<<10 {
		t.Errorf("long-lived DCTCP flow peaked queue at %d bytes; ECN not effective", peak)
	}
	d := sconn.CC()
	if d.Alpha == 0 {
		t.Error("DCTCP alpha never updated despite persistent marking")
	}
}

func TestIncastCausesLossAndRetransmits(t *testing.T) {
	// Heavy incast: many senders' initial windows dwarf the lone-queue DT
	// share, so drops and the Meta retransmit bit must appear (paper §3).
	r := testbed.NewRack(testbed.RackConfig{Servers: 4, Remotes: 160, Seed: 7})
	var retxSeen bool
	f := &flagWatcher{flag: netsim.FlagRetx, seen: &retxSeen}
	r.Servers[0].AttachIngress(f)

	conns := make([]*transport.Conn, 140)
	for i := range conns {
		conns[i] = r.RemoteEPs[i].Connect(r.Servers[0].ID, 80, transport.Options{})
		conns[i].Send(256 << 10)
	}
	r.Eng.RunUntil(3 * sim.Second)

	st := r.Switch.QueueStats(0)
	if st.DiscardSegments == 0 {
		t.Fatal("48-way incast of 256KB each produced no switch discards")
	}
	var totalRetx, totalRecv int64
	for _, c := range conns {
		totalRetx += c.Stats.RetxSegs
	}
	if totalRetx == 0 {
		t.Error("discards occurred but no sender retransmitted")
	}
	if !retxSeen {
		t.Error("no ingress segment carried the retransmit bit")
	}
	// All data must eventually arrive despite loss.
	for i, c := range conns {
		if !c.Done() {
			t.Errorf("conn %d incomplete: pending=%d inflight=%d timeouts=%d",
				i, c.Pending(), c.InflightBytes(), c.Stats.Timeouts)
			break
		}
	}
	_ = totalRecv
}

func TestRetransmitBitOnlyAfterLoss(t *testing.T) {
	// A clean transfer must not set the retransmit bit.
	r := newRack(t, 4)
	var retxSeen bool
	r.Servers[0].AttachIngress(&flagWatcher{flag: netsim.FlagRetx, seen: &retxSeen})
	sconn, _ := oneTransfer(t, r, 1<<20)
	if sconn.Stats.RetxSegs != 0 {
		t.Errorf("clean transfer retransmitted %d segments", sconn.Stats.RetxSegs)
	}
	if retxSeen {
		t.Error("retransmit bit on a clean transfer")
	}
}

func TestRackLocalTransfer(t *testing.T) {
	// Server-to-server traffic hairpins at the ToR through the destination
	// server's queue.
	r := newRack(t, 4)
	var rconn *transport.Conn
	r.ServerEPs[1].OnAccept = func(c *transport.Conn) { rconn = c }
	sconn := r.ServerEPs[0].Connect(r.Servers[1].ID, 80, transport.Options{})
	sconn.Send(256 << 10)
	r.Eng.RunUntil(sim.Second)
	if rconn == nil || rconn.Stats.RecvBytes != 256<<10 {
		t.Fatalf("rack-local transfer failed: %+v", rconn)
	}
	if r.Switch.QueueStats(1).EnqueuedSegments == 0 {
		t.Error("rack-local traffic bypassed the destination ToR queue")
	}
}

func TestSRTTReasonable(t *testing.T) {
	r := newRack(t, 4)
	sconn, _ := oneTransfer(t, r, 1<<20)
	rtt := sconn.SRTT()
	// Base path: 2x fabric 10µs + serialization + switch prop. Queueing can
	// add up to ~1ms. Anything outside (5µs, 5ms) indicates a broken path.
	if rtt < 5*sim.Microsecond || rtt > 5*sim.Millisecond {
		t.Errorf("SRTT = %v, outside plausible range", rtt)
	}
}

func TestCloseReleasesState(t *testing.T) {
	r := newRack(t, 4)
	sconn, _ := oneTransfer(t, r, 64<<10)
	sconn.Close()
	r.Eng.RunUntil(3 * sim.Second)
	if got := r.RemoteEPs[0].ConnCount(); got != 0 {
		t.Errorf("sender endpoint still holds %d conns after close", got)
	}
	if got := r.ServerEPs[0].ConnCount(); got != 0 {
		t.Errorf("receiver endpoint still holds %d conns after close", got)
	}
}

func TestManySequentialRequests(t *testing.T) {
	// Request-response loop driven by OnDrain: each drain queues the next
	// response; the connection stays open (persistent connection pattern).
	r := newRack(t, 4)
	sconn := r.RemoteEPs[0].Connect(r.Servers[0].ID, 80, transport.Options{})
	sent := 0
	sconn.OnDrain = func() {
		if sent < 20 {
			sent++
			sconn.Send(32 << 10)
		}
	}
	sconn.Send(32 << 10)
	sent++
	r.Eng.RunUntil(2 * sim.Second)
	if sent != 20 {
		t.Errorf("completed %d of 20 chained sends", sent)
	}
	if !sconn.Done() {
		t.Error("final send incomplete")
	}
}

type flagWatcher struct {
	flag netsim.Flags
	seen *bool
}

func (w *flagWatcher) Handle(_ sim.Time, _ netsim.Direction, seg *netsim.Segment) {
	if seg.Is(w.flag) {
		*w.seen = true
	}
}
