// Package transport implements segment-level TCP-like transports over the
// simulated network: DCTCP for in-region traffic (the dominant class the
// paper analyzes) and Cubic for inter-region traffic, with NewReno loss
// recovery, RTO, and Meta's retransmit-bit header instrumentation.
//
// Demux is early, as in a kernel's established-socket fast path: every
// segment a Conn emits carries its own socket slot and its peer's
// (Segment.SrcSock, DstSock), and Endpoint.receive takes the connection in
// the DstSock slot whenever its role and flow prove it is the one the
// connection map would return. The map stays the authority; it answers
// SYNs, which name no peer slot yet, and every stale slot.
package transport

import "math"

// CongestionControl is the pluggable window algorithm of a sending
// connection. All quantities are in bytes. Implementations are driven by the
// Conn: acknowledgement progress (with ECN-echo information), loss events,
// and timeouts.
type CongestionControl interface {
	// Name identifies the algorithm ("dctcp", "cubic", "reno").
	Name() string
	// Window returns the current congestion window in bytes.
	Window() int
	// OnAck processes acked new bytes; marked reports whether the
	// acknowledgement echoed a congestion mark (ECE).
	OnAck(acked int, marked bool)
	// OnLoss processes a fast-retransmit loss event (once per recovery).
	OnLoss()
	// OnTimeout processes an RTO.
	OnTimeout()
}

// renoState carries the slow-start/congestion-avoidance core shared by the
// implementations.
type renoState struct {
	mss      int
	iw       int
	cwnd     int
	ssthresh int
	acked    int // CA byte accumulator
}

func newRenoState(mss, initialWindow int) renoState {
	return renoState{mss: mss, iw: initialWindow, cwnd: initialWindow, ssthresh: math.MaxInt32}
}

// RestartAfterIdle implements slow-start-after-idle (RFC 2861): after an
// idle period longer than the RTO, the stale window is reset to the initial
// window while ssthresh is preserved, so the connection probes again instead
// of dumping an arbitrarily large burst.
func (r *renoState) RestartAfterIdle() {
	if r.cwnd > r.iw {
		r.cwnd = r.iw
	}
}

func (r *renoState) grow(acked int) {
	if r.cwnd < r.ssthresh {
		// Slow start: one MSS per MSS acked.
		r.cwnd += acked
		if r.cwnd > r.ssthresh {
			r.cwnd = r.ssthresh
		}
		return
	}
	// Congestion avoidance: one MSS per window.
	r.acked += acked
	if r.acked >= r.cwnd {
		r.acked -= r.cwnd
		r.cwnd += r.mss
	}
}

func (r *renoState) floorWindow() {
	if r.cwnd < r.mss {
		r.cwnd = r.mss
	}
}

// Reno is classic NewReno congestion control, provided as the
// non-ECN baseline.
type Reno struct{ renoState }

// NewReno returns a Reno controller.
func NewReno(mss, initialWindow int) *Reno {
	return &Reno{newRenoState(mss, initialWindow)}
}

// Name implements CongestionControl.
func (r *Reno) Name() string { return "reno" }

// Window implements CongestionControl.
func (r *Reno) Window() int { return r.cwnd }

// OnAck implements CongestionControl. Reno ignores ECN echoes.
func (r *Reno) OnAck(acked int, marked bool) { r.grow(acked) }

// OnLoss implements CongestionControl.
func (r *Reno) OnLoss() {
	r.ssthresh = r.cwnd / 2
	if r.ssthresh < 2*r.mss {
		r.ssthresh = 2 * r.mss
	}
	r.cwnd = r.ssthresh
}

// OnTimeout implements CongestionControl.
func (r *Reno) OnTimeout() {
	r.ssthresh = r.cwnd / 2
	if r.ssthresh < 2*r.mss {
		r.ssthresh = 2 * r.mss
	}
	r.cwnd = r.mss
}

// DCTCP implements Data Center TCP (Alizadeh et al., SIGCOMM 2010): the
// sender maintains an EWMA estimate alpha of the fraction of bytes whose
// acknowledgements carried congestion echoes, and once per window scales
// cwnd by (1 - alpha/2). With the paper's 120 KB static marking threshold
// this keeps queues short for long flows, but — as the paper stresses — the
// feedback loop still needs at least an RTT, so sub-RTT bursts and heavy
// incast escape it.
type DCTCP struct {
	renoState
	// Alpha is the EWMA congestion estimate in [0, 1].
	Alpha float64
	// G is the EWMA gain (RFC 8257 default 1/16).
	G float64

	windowAcked  int
	windowMarked int
	windowSize   int // cwnd snapshot at the start of the observation window
}

// NewDCTCP returns a DCTCP controller.
func NewDCTCP(mss, initialWindow int) *DCTCP {
	d := &DCTCP{renoState: newRenoState(mss, initialWindow), G: 1.0 / 16}
	d.windowSize = d.cwnd
	return d
}

// Name implements CongestionControl.
func (d *DCTCP) Name() string { return "dctcp" }

// Window implements CongestionControl.
func (d *DCTCP) Window() int { return d.cwnd }

// OnAck implements CongestionControl.
func (d *DCTCP) OnAck(acked int, marked bool) {
	d.windowAcked += acked
	if marked {
		d.windowMarked += acked
		// A congestion echo ends slow start (RFC 8257 §3.4).
		if d.cwnd < d.ssthresh {
			d.ssthresh = d.cwnd
		}
	}
	d.grow(acked)
	if d.windowAcked >= d.windowSize {
		d.updateAlpha()
	}
}

func (d *DCTCP) updateAlpha() {
	f := 0.0
	if d.windowAcked > 0 {
		f = float64(d.windowMarked) / float64(d.windowAcked)
	}
	d.Alpha = (1-d.G)*d.Alpha + d.G*f
	if d.windowMarked > 0 {
		d.cwnd = int(float64(d.cwnd) * (1 - d.Alpha/2))
		d.floorWindow()
		d.ssthresh = d.cwnd
	}
	d.windowAcked = 0
	d.windowMarked = 0
	d.windowSize = d.cwnd
}

// OnLoss implements CongestionControl: packet loss is handled like standard
// TCP (RFC 8257 §3.2).
func (d *DCTCP) OnLoss() {
	d.ssthresh = d.cwnd / 2
	if d.ssthresh < 2*d.mss {
		d.ssthresh = 2 * d.mss
	}
	d.cwnd = d.ssthresh
	d.resetWindowObservation()
}

// OnTimeout implements CongestionControl.
func (d *DCTCP) OnTimeout() {
	d.ssthresh = d.cwnd / 2
	if d.ssthresh < 2*d.mss {
		d.ssthresh = 2 * d.mss
	}
	d.cwnd = d.mss
	d.resetWindowObservation()
}

// RestartAfterIdle resets the window and the marking observation window.
func (d *DCTCP) RestartAfterIdle() {
	d.renoState.RestartAfterIdle()
	d.resetWindowObservation()
}

func (d *DCTCP) resetWindowObservation() {
	d.windowAcked = 0
	d.windowMarked = 0
	d.windowSize = d.cwnd
}

// Cubic implements the CUBIC window growth function (RFC 9438) used by the
// fleet's inter-region traffic. Time is supplied by the Conn via Tick, in
// seconds since the connection started, so the implementation stays free of
// wall-clock reads.
type Cubic struct {
	renoState
	// C is the cubic scaling constant (RFC 9438 default 0.4, in units of
	// MSS-windows; converted internally).
	C float64
	// Beta is the multiplicative decrease factor (default 0.7).
	Beta float64

	wMax      float64 // window before the last reduction, bytes
	epochAt   float64 // time of the last reduction, seconds
	nowSec    float64
	inEpoch   bool
	everGrown bool
}

// NewCubic returns a Cubic controller.
func NewCubic(mss, initialWindow int) *Cubic {
	return &Cubic{renoState: newRenoState(mss, initialWindow), C: 0.4, Beta: 0.7}
}

// Name implements CongestionControl.
func (c *Cubic) Name() string { return "cubic" }

// Window implements CongestionControl.
func (c *Cubic) Window() int { return c.cwnd }

// Tick informs the controller of the current connection time in seconds.
func (c *Cubic) Tick(nowSec float64) { c.nowSec = nowSec }

// OnAck implements CongestionControl.
func (c *Cubic) OnAck(acked int, marked bool) {
	if c.cwnd < c.ssthresh {
		c.grow(acked)
		return
	}
	if !c.inEpoch {
		c.inEpoch = true
		c.epochAt = c.nowSec
		if c.wMax < float64(c.cwnd) {
			c.wMax = float64(c.cwnd)
		}
	}
	t := c.nowSec - c.epochAt
	// K = cbrt(wMax * (1-beta) / C), with windows measured in MSS units.
	wMaxSeg := c.wMax / float64(c.mss)
	k := math.Cbrt(wMaxSeg * (1 - c.Beta) / c.C)
	target := c.C*math.Pow(t-k, 3) + wMaxSeg // in MSS
	targetBytes := int(target * float64(c.mss))
	if targetBytes > c.cwnd {
		// Approach the cubic target gradually, standard per-ACK step.
		step := (targetBytes - c.cwnd) * acked / c.cwnd
		if step < 1 {
			step = 1
		}
		c.cwnd += step
	} else {
		// TCP-friendly region: fall back to Reno-style growth.
		c.grow(acked)
	}
}

// OnLoss implements CongestionControl.
func (c *Cubic) OnLoss() {
	c.wMax = float64(c.cwnd)
	c.cwnd = int(float64(c.cwnd) * c.Beta)
	c.floorWindow()
	c.ssthresh = c.cwnd
	c.inEpoch = false
}

// OnTimeout implements CongestionControl.
func (c *Cubic) OnTimeout() {
	c.wMax = float64(c.cwnd)
	c.ssthresh = c.cwnd / 2
	if c.ssthresh < 2*c.mss {
		c.ssthresh = 2 * c.mss
	}
	c.cwnd = c.mss
	c.inEpoch = false
}
