package transport

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Options configure a connection.
type Options struct {
	// MSS is the maximum payload per wire segment (default netsim.DefaultMSS).
	MSS int
	// CC selects the congestion controller: "dctcp" (default), "cubic",
	// "reno".
	CC string
	// InitialWindowSegs is the initial window in segments. The default of 2
	// jumbo segments (18 KB) matches Linux's IW10 at a 1460-byte MSS in
	// byte terms.
	InitialWindowSegs int
	// NoIdleRestart disables slow-start-after-idle (RFC 2861). Production
	// stacks reset the window after an idle period; without this, long-idle
	// persistent connections would dump arbitrarily large stale windows.
	NoIdleRestart bool
	// RTOMin floors the retransmission timeout (default 4 ms, a data center
	// tuned value).
	RTOMin sim.Time
	// RTOInit is the timeout before any RTT sample exists (default 10 ms).
	RTOInit sim.Time
}

func (o Options) withDefaults() Options {
	if o.MSS <= 0 {
		o.MSS = netsim.DefaultMSS
	}
	if o.CC == "" {
		o.CC = "dctcp"
	}
	if o.InitialWindowSegs <= 0 {
		o.InitialWindowSegs = 2
	}
	if o.RTOMin <= 0 {
		o.RTOMin = 4 * sim.Millisecond
	}
	if o.RTOInit <= 0 {
		o.RTOInit = 10 * sim.Millisecond
	}
	return o
}

// Validate reports whether the options (after defaults) name a known
// congestion control. Config-driven tools should call it before Connect,
// which treats an unknown CC as an invariant violation.
func (o Options) Validate() error {
	switch o.withDefaults().CC {
	case "dctcp", "cubic", "reno":
		return nil
	}
	return fmt.Errorf("transport: unknown congestion control %q", o.CC)
}

func (o Options) newCC() CongestionControl {
	if err := o.Validate(); err != nil {
		panic(err.Error())
	}
	iw := o.InitialWindowSegs * o.MSS
	switch o.CC {
	case "dctcp":
		return NewDCTCP(o.MSS, iw)
	case "cubic":
		return NewCubic(o.MSS, iw)
	case "reno":
		return NewReno(o.MSS, iw)
	}
	panic(fmt.Sprintf("transport: unknown congestion control %q", o.CC))
}

// ecnCapable reports whether the transport marks its data ECN-capable. In
// the studied fleet, in-region DCTCP traffic is ECT; inter-region Cubic is
// not (paper §3).
func (o Options) ecnCapable() bool { return o.CC == "dctcp" }

// ConnStats counts a connection's activity.
type ConnStats struct {
	SentSegs   int64
	SentBytes  int64 // payload bytes, first transmissions only
	RetxSegs   int64
	RetxBytes  int64
	FastRetx   int64 // fast-retransmit episodes
	Timeouts   int64 // RTO episodes
	AckedBytes int64
	RecvSegs   int64
	RecvBytes  int64 // payload bytes received in order
	MarkedSegs int64 // CE-marked data segments seen by the receiver
}

type segMeta struct {
	seq    int64
	size   int // payload bytes
	sentAt sim.Time
	retx   bool
}

// Conn is a unidirectional data connection (sender -> receiver) with
// bidirectional control. The side that called Connect sends data; the peer
// acknowledges. Request semantics are modeled at the workload layer.
type Conn struct {
	ep     *Endpoint
	flow   netsim.FlowKey // data-direction 4-tuple
	sender bool
	opts   Options
	cc     CongestionControl

	// Sender state. Timers are reusable handles (sim.Timer), so rearming on
	// every ACK round trip allocates nothing; the inflight window is a ring
	// that reuses its backing array across the connection's life.
	established bool
	closed      bool
	synRetries  int
	synTimer    *sim.Timer
	startedAt   sim.Time
	sndUna      int64
	sndNxt      int64
	pending     int64
	inflight    metaRing
	dupAcks     int
	inRecovery  bool
	recoverSeq  int64
	srtt        sim.Time
	rttvar      sim.Time
	rto         sim.Time
	rtoTimer    *sim.Timer

	lastActivity sim.Time

	// Receiver state.
	rcvNxt      int64
	ooo         map[int64]int64 // out-of-order spans: start -> end
	heldSegs    int             // delayed-ACK: in-order data segments held
	heldCE      bool            // CE state of the held segments
	delackTimer *sim.Timer

	// Stats accumulates counters for tests and analysis.
	Stats ConnStats

	// OnDrain, if set on the sender, fires whenever all queued data has been
	// sent and acknowledged.
	OnDrain func()
	// OnReceive, if set on the receiver, fires with each in-order payload
	// byte count delivered.
	OnReceive func(n int)
}

// Flow returns the data-direction 4-tuple.
func (c *Conn) Flow() netsim.FlowKey { return c.flow }

// Established reports whether the handshake completed.
func (c *Conn) Established() bool { return c.established }

// CC exposes the congestion controller (read-mostly, for tests/analysis).
func (c *Conn) CC() CongestionControl { return c.cc }

// Prime drives the congestion controller to the given equilibrium window
// (see EquilibriumWindow) without simulating warmup traffic. Controllers
// without priming support are left untouched.
func (c *Conn) Prime(w int64) {
	if p, ok := c.cc.(interface{ Prime(int64) }); ok {
		p.Prime(w)
	}
}

// Pending returns queued-but-unsent payload bytes.
func (c *Conn) Pending() int64 { return c.pending }

// InflightBytes returns payload bytes sent and not yet acknowledged.
func (c *Conn) InflightBytes() int64 { return c.sndNxt - c.sndUna }

// Done reports whether all queued data has been acknowledged.
func (c *Conn) Done() bool { return c.pending == 0 && c.sndUna == c.sndNxt }

// Send queues n payload bytes for transmission.
func (c *Conn) Send(n int64) {
	if !c.sender {
		panic("transport: Send on receiver side")
	}
	if c.closed {
		return
	}
	if n <= 0 {
		return
	}
	if !c.opts.NoIdleRestart && c.established && c.inflight.Len() == 0 &&
		c.ep.eng.Now()-c.lastActivity > c.rto {
		if rs, ok := c.cc.(interface{ RestartAfterIdle() }); ok {
			rs.RestartAfterIdle()
		}
	}
	c.pending += n
	c.trySend()
}

// Close tears the connection down. Data still queued is discarded; a FIN
// notifies the peer so both sides release state.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.pending = 0
	if c.rtoTimer != nil {
		c.rtoTimer.Stop()
	}
	if c.synTimer != nil {
		c.synTimer.Stop()
	}
	if c.sender && c.established {
		seg := c.pool().Get()
		seg.Flow = c.flow
		seg.Seq = c.sndNxt
		seg.Size = netsim.HeaderBytes
		seg.Flags = netsim.FlagFIN
		c.emit(seg)
	}
	c.ep.remove(c.flow)
}

// ---- sender path ----

// pool returns the segment pool all of this connection's emissions draw from.
func (c *Conn) pool() *netsim.SegmentPool { return c.ep.host.Pool() }

func (c *Conn) sendSYN() {
	c.synRetries++
	if c.synRetries > 6 {
		c.Close()
		return
	}
	flags := netsim.FlagSYN
	if c.synRetries > 1 {
		flags |= netsim.FlagRetx
	}
	seg := c.pool().Get()
	seg.Flow = c.flow
	seg.Size = netsim.HeaderBytes
	seg.Flags = flags
	c.emit(seg)
	if c.synTimer == nil {
		c.synTimer = c.ep.eng.NewTimer(func() {
			if !c.established && !c.closed {
				c.sendSYN()
			}
		})
	}
	c.synTimer.Reset(c.rto)
}

func (c *Conn) trySend() {
	if !c.established || c.closed {
		return
	}
	if tick, ok := c.cc.(interface{ Tick(float64) }); ok {
		tick.Tick((c.ep.eng.Now() - c.startedAt).Seconds())
	}
	for c.pending > 0 {
		win := int64(c.cc.Window())
		if c.InflightBytes() >= win {
			break
		}
		size := int64(c.opts.MSS)
		if size > c.pending {
			size = c.pending
		}
		flags := netsim.Flags(0)
		if c.opts.ecnCapable() {
			flags |= netsim.FlagECT
		}
		seg := c.pool().Get()
		seg.Flow = c.flow
		seg.Seq = c.sndNxt
		seg.Size = int(size) + netsim.HeaderBytes
		seg.Flags = flags
		c.inflight.Push(segMeta{seq: c.sndNxt, size: int(size), sentAt: c.ep.eng.Now()})
		c.sndNxt += size
		c.pending -= size
		c.Stats.SentSegs++
		c.Stats.SentBytes += size
		c.lastActivity = c.ep.eng.Now()
		c.emit(seg)
	}
	c.armRTO()
}

func (c *Conn) emit(seg *netsim.Segment) {
	c.ep.host.Send(seg)
}

func (c *Conn) armRTO() {
	if c.inflight.Len() == 0 {
		if c.rtoTimer != nil {
			c.rtoTimer.Stop()
		}
		return
	}
	if c.rtoTimer == nil {
		c.rtoTimer = c.ep.eng.NewTimer(c.onRTO)
	}
	c.rtoTimer.Reset(c.rto)
}

func (c *Conn) onRTO() {
	if c.closed || c.inflight.Len() == 0 {
		return
	}
	c.Stats.Timeouts++
	c.cc.OnTimeout()
	c.dupAcks = 0
	c.inRecovery = false
	c.rto *= 2
	if max := 200 * sim.Millisecond; c.rto > max {
		c.rto = max
	}
	c.retransmit(c.inflight.Front())
	c.armRTO()
}

// retransmit resends one tracked segment with the Meta retransmit bit set:
// production instrumentation flags the next outgoing packet of a connection
// after TCP processes a timeout or fast retransmission (paper §4.2), and
// Millisampler counts those bytes as retransmitted.
func (c *Conn) retransmit(m *segMeta) {
	m.retx = true
	m.sentAt = c.ep.eng.Now()
	flags := netsim.FlagRetx
	if c.opts.ecnCapable() {
		flags |= netsim.FlagECT
	}
	c.Stats.RetxSegs++
	c.Stats.RetxBytes += int64(m.size)
	seg := c.pool().Get()
	seg.Flow = c.flow
	seg.Seq = m.seq
	seg.Size = m.size + netsim.HeaderBytes
	seg.Flags = flags
	c.emit(seg)
}

func (c *Conn) onAckSegment(seg *netsim.Segment) {
	if seg.Is(netsim.FlagSYN) { // SYN-ACK
		if !c.established {
			c.established = true
			if c.synTimer != nil {
				c.synTimer.Stop()
			}
			c.sampleRTT(c.ep.eng.Now() - c.startedAt)
			c.trySend()
		}
		return
	}
	ack := seg.Ack
	marked := seg.Is(netsim.FlagCE) // receiver echoes CE on the ACK (ECE)
	switch {
	case ack > c.sndUna:
		acked := ack - c.sndUna
		c.sndUna = ack
		c.Stats.AckedBytes += acked
		c.lastActivity = c.ep.eng.Now()
		c.dupAcks = 0
		// Pop fully covered segments; sample RTT from clean transmissions
		// (Karn's rule).
		var rttSample sim.Time = -1
		for c.inflight.Len() > 0 {
			m := c.inflight.Front()
			if m.seq+int64(m.size) > ack {
				break
			}
			if !m.retx {
				rttSample = c.ep.eng.Now() - m.sentAt
			}
			c.inflight.PopFront()
		}
		if rttSample >= 0 {
			c.sampleRTT(rttSample)
		}
		if tick, ok := c.cc.(interface{ Tick(float64) }); ok {
			tick.Tick((c.ep.eng.Now() - c.startedAt).Seconds())
		}
		c.cc.OnAck(int(acked), marked)
		if c.inRecovery {
			if ack >= c.recoverSeq {
				c.inRecovery = false
			} else if c.inflight.Len() > 0 {
				// NewReno partial ACK: the next hole is lost too.
				c.retransmit(c.inflight.Front())
			}
		}
		// trySend ends by re-arming the RTO; arm it here only when trySend
		// will return early, so each new ACK costs one Timer.Reset, not two.
		if !c.established || c.closed {
			c.armRTO()
		}
		c.trySend()
		if c.Done() && c.OnDrain != nil {
			c.OnDrain()
		}
	case ack == c.sndUna && c.inflight.Len() > 0:
		c.dupAcks++
		if marked {
			c.cc.OnAck(0, true)
		}
		if c.dupAcks == 3 && !c.inRecovery {
			c.fastRetransmit()
		}
	}
}

func (c *Conn) fastRetransmit() {
	c.Stats.FastRetx++
	c.inRecovery = true
	c.recoverSeq = c.sndNxt
	c.cc.OnLoss()
	if c.inflight.Len() > 0 {
		c.retransmit(c.inflight.Front())
	}
	c.armRTO()
}

func (c *Conn) sampleRTT(rtt sim.Time) {
	if rtt <= 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
	} else {
		diff := c.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < c.opts.RTOMin {
		c.rto = c.opts.RTOMin
	}
}

// SRTT returns the smoothed RTT estimate.
func (c *Conn) SRTT() sim.Time { return c.srtt }

// ---- receiver path ----

// delAckDelay bounds how long an acknowledgement may be deferred; production
// data center stacks use sub-millisecond delayed ACKs.
const delAckDelay = 400 * sim.Microsecond

func (c *Conn) onDataSegment(seg *netsim.Segment) {
	payload := int64(seg.Payload())
	ce := seg.Is(netsim.FlagCE)
	if ce {
		c.Stats.MarkedSegs++
	}
	c.Stats.RecvSegs++
	if payload == 0 {
		// Control (SYN): acknowledge immediately.
		c.flushDelack()
		c.sendAck(seg)
		return
	}
	end := seg.Seq + payload
	inOrder := false
	switch {
	case seg.Seq == c.rcvNxt:
		c.rcvNxt = end
		c.Stats.RecvBytes += payload
		c.drainOOO()
		inOrder = true
	case seg.Seq > c.rcvNxt:
		if c.ooo == nil {
			c.ooo = make(map[int64]int64)
		}
		if prev, ok := c.ooo[seg.Seq]; !ok || end > prev {
			c.ooo[seg.Seq] = end
		}
	default:
		// Duplicate of already received data; the immediate ACK below
		// re-informs the sender.
	}
	if c.OnReceive != nil {
		c.OnReceive(int(payload))
	}
	if !inOrder {
		// Out-of-order or duplicate data: every such segment must produce
		// an immediate (duplicate) ACK so fast retransmit can trigger.
		c.flushDelack()
		c.sendAck(seg)
		return
	}
	// In-order data: delayed ACK with the DCTCP state machine — a change in
	// CE state flushes immediately with the *previous* state's echo so the
	// sender's marked-byte accounting stays exact (RFC 8257 §3.3).
	if c.heldSegs > 0 && c.heldCE != ce {
		c.flushDelack()
	}
	c.heldSegs++
	c.heldCE = ce
	if c.heldSegs >= 2 {
		c.flushDelack()
		return
	}
	if c.delackTimer == nil {
		c.delackTimer = c.ep.eng.NewTimer(c.flushDelack)
	}
	if !c.delackTimer.Armed() {
		c.delackTimer.Reset(delAckDelay)
	}
}

// flushDelack emits the pending delayed acknowledgement, if any.
func (c *Conn) flushDelack() {
	if c.heldSegs == 0 {
		return
	}
	c.heldSegs = 0
	if c.delackTimer != nil {
		c.delackTimer.Stop()
	}
	flags := netsim.FlagACK
	if c.heldCE {
		flags |= netsim.FlagCE
	}
	seg := c.pool().Get()
	seg.Flow = c.flow.Reverse()
	seg.Ack = c.rcvNxt
	seg.Size = netsim.HeaderBytes
	seg.Flags = flags
	c.emit(seg)
}

func (c *Conn) drainOOO() {
	for {
		end, ok := c.ooo[c.rcvNxt]
		if !ok {
			return
		}
		delete(c.ooo, c.rcvNxt)
		c.Stats.RecvBytes += end - c.rcvNxt
		c.rcvNxt = end
	}
}

func (c *Conn) sendAck(trigger *netsim.Segment) {
	flags := netsim.FlagACK
	if trigger.Is(netsim.FlagSYN) {
		flags |= netsim.FlagSYN
	}
	if trigger.Is(netsim.FlagCE) {
		flags |= netsim.FlagCE // ECE echo
	}
	seg := c.pool().Get()
	seg.Flow = c.flow.Reverse()
	seg.Ack = c.rcvNxt
	seg.Size = netsim.HeaderBytes
	seg.Flags = flags
	c.emit(seg)
}
