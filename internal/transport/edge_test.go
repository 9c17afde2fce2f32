package transport_test

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/transport"
)

func TestSYNRetryAfterHandshakeStall(t *testing.T) {
	// Overflow the destination queue so hard during connection setup that
	// some SYNs drop; every connection must still establish eventually via
	// SYN retransmission.
	r := testbed.NewRack(testbed.RackConfig{Servers: 2, Remotes: 300, Seed: 31})
	conns := make([]*transport.Conn, 300)
	for i := range conns {
		conns[i] = r.RemoteEPs[i].Connect(r.Servers[0].ID, 80, transport.Options{})
		conns[i].Send(128 << 10)
	}
	r.Eng.RunUntil(5 * sim.Second)
	for i, c := range conns {
		if !c.Established() {
			t.Fatalf("conn %d never established", i)
		}
		if !c.Done() {
			t.Fatalf("conn %d did not finish (timeouts=%d)", i, c.Stats.Timeouts)
		}
	}
}

func TestSendOnReceiverPanics(t *testing.T) {
	r := testbed.NewRack(testbed.RackConfig{Servers: 2, Seed: 32})
	var rconn *transport.Conn
	r.ServerEPs[0].OnAccept = func(c *transport.Conn) { rconn = c }
	s := r.RemoteEPs[0].Connect(r.Servers[0].ID, 80, transport.Options{})
	s.Send(1000)
	r.Eng.RunUntil(100 * sim.Millisecond)
	if rconn == nil {
		t.Fatal("no accept")
	}
	defer func() {
		if recover() == nil {
			t.Error("Send on receiver did not panic")
		}
	}()
	rconn.Send(10)
}

func TestSendOnClosedConnIsNoop(t *testing.T) {
	r := testbed.NewRack(testbed.RackConfig{Servers: 2, Seed: 33})
	c := r.RemoteEPs[0].Connect(r.Servers[0].ID, 80, transport.Options{})
	c.Send(64 << 10)
	r.Eng.RunUntil(100 * sim.Millisecond)
	c.Close()
	c.Send(1 << 20) // must not panic or queue
	if c.Pending() != 0 {
		t.Error("closed conn queued data")
	}
	r.Eng.RunUntil(200 * sim.Millisecond)
}

func TestZeroAndNegativeSendIgnored(t *testing.T) {
	r := testbed.NewRack(testbed.RackConfig{Servers: 2, Seed: 34})
	c := r.RemoteEPs[0].Connect(r.Servers[0].ID, 80, transport.Options{})
	c.Send(0)
	c.Send(-5)
	r.Eng.RunUntil(50 * sim.Millisecond)
	if c.Stats.SentSegs != 0 {
		t.Errorf("sent %d segments for empty sends", c.Stats.SentSegs)
	}
}

func TestIdleRestartResetsWindow(t *testing.T) {
	r := testbed.NewRack(testbed.RackConfig{Servers: 2, Seed: 35})
	c := r.RemoteEPs[0].Connect(r.Servers[0].ID, 80, transport.Options{})
	// Grow the window with a big transfer.
	c.Send(4 << 20)
	r.Eng.RunUntil(500 * sim.Millisecond)
	if !c.Done() {
		t.Fatal("transfer incomplete")
	}
	grown := c.CC().Window()
	// Long idle, then a new send: the window must restart small.
	r.Eng.RunUntil(1500 * sim.Millisecond)
	c.Send(9000)
	if w := c.CC().Window(); w >= grown {
		t.Errorf("window %d did not restart after idle (was %d)", w, grown)
	}
}

func TestDelayedAckHalvesAckTraffic(t *testing.T) {
	// With in-order delivery and no CE transitions, roughly one ACK per two
	// data segments should cross the uplink.
	r := testbed.NewRack(testbed.RackConfig{Servers: 2, Seed: 37})
	acks := 0
	watcher := &ackCounter{n: &acks}
	r.Servers[0].AttachEgress(watcher)
	c := r.RemoteEPs[0].Connect(r.Servers[0].ID, 80, transport.Options{})
	c.Send(2 << 20)
	r.Eng.RunUntil(sim.Second)
	if !c.Done() {
		t.Fatal("transfer incomplete")
	}
	dataSegs := int(c.Stats.SentSegs)
	if acks >= dataSegs {
		t.Errorf("acks %d not reduced vs %d data segments (delayed ACK inactive)", acks, dataSegs)
	}
	if acks < dataSegs/3 {
		t.Errorf("acks %d suspiciously few for %d data segments", acks, dataSegs)
	}
}

type ackCounter struct{ n *int }

func (a *ackCounter) Handle(_ sim.Time, _ int, _ netsim.Direction, seg *netsim.Segment) {
	if seg.Is(netsim.FlagACK) && !seg.Is(netsim.FlagSYN) {
		*a.n++
	}
}

func TestDelackTimerFlushesTailSegment(t *testing.T) {
	// An odd trailing segment is held by delayed ACK; the 400µs timer must
	// flush it well before the sender's RTO fires.
	r := testbed.NewRack(testbed.RackConfig{Servers: 2, Seed: 38})
	c := r.RemoteEPs[0].Connect(r.Servers[0].ID, 80, transport.Options{})
	c.Send(9000) // exactly one segment
	r.Eng.RunUntil(100 * sim.Millisecond)
	if !c.Done() {
		t.Fatal("single-segment send not acknowledged")
	}
	if c.Stats.Timeouts != 0 {
		t.Errorf("sender hit %d RTOs waiting for a held ACK", c.Stats.Timeouts)
	}
}

func TestConnStatsConsistency(t *testing.T) {
	r := testbed.NewRack(testbed.RackConfig{Servers: 2, Seed: 39})
	var rconn *transport.Conn
	r.ServerEPs[0].OnAccept = func(c *transport.Conn) { rconn = c }
	c := r.RemoteEPs[0].Connect(r.Servers[0].ID, 80, transport.Options{})
	const n = 3 << 20
	c.Send(n)
	r.Eng.RunUntil(sim.Second)
	if c.Stats.SentBytes != n || c.Stats.AckedBytes != n {
		t.Errorf("sent/acked = %d/%d, want %d", c.Stats.SentBytes, c.Stats.AckedBytes, n)
	}
	if rconn.Stats.RecvBytes != n {
		t.Errorf("received %d, want %d", rconn.Stats.RecvBytes, n)
	}
	if c.Stats.RetxSegs != 0 && c.Stats.FastRetx == 0 && c.Stats.Timeouts == 0 {
		t.Error("retransmissions without a recorded loss event")
	}
}
