// Package transport implements a segment-level TCP-like transport over the
// simulated network: DCTCP congestion control (the in-region class the paper
// analyzes) with NewReno loss recovery, RTO, slow-start-after-idle, and
// Meta's retransmit-bit header instrumentation.
//
// Demux is early, as in a kernel's established-socket fast path: every
// segment a Conn emits carries its own socket slot and its peer's
// (Segment.SrcSock, DstSock), and Endpoint.receive takes the connection in
// the DstSock slot whenever its role and flow prove it is the one the
// connection map would return. The map stays the authority; it answers
// SYNs, which name no peer slot yet, and every stale slot.
package transport

import "math"

// dctcpG is the EWMA gain of DCTCP's congestion estimate (RFC 8257 default).
const dctcpG = 1.0 / 16

// DCTCP implements Data Center TCP (Alizadeh et al., SIGCOMM 2010): the
// sender maintains an EWMA estimate alpha of the fraction of bytes whose
// acknowledgements carried congestion echoes, and once per window scales
// cwnd by (1 - alpha/2). With the paper's 120 KB static marking threshold
// this keeps queues short for long flows, but — as the paper stresses — the
// feedback loop still needs at least an RTT, so sub-RTT bursts and heavy
// incast escape it. All quantities are in bytes; the owning Conn drives it
// with acknowledgement progress, loss events and timeouts.
type DCTCP struct {
	// Alpha is the EWMA congestion estimate in [0, 1].
	Alpha float64

	mss      int
	iw       int
	cwnd     int
	ssthresh int
	caAcked  int // congestion-avoidance byte accumulator

	windowAcked  int
	windowMarked int
	windowSize   int // cwnd snapshot at the start of the observation window
}

func newDCTCP(mss, initialWindow int) DCTCP {
	return DCTCP{mss: mss, iw: initialWindow, cwnd: initialWindow, ssthresh: math.MaxInt32, windowSize: initialWindow}
}

// Window returns the current congestion window in bytes.
func (d *DCTCP) Window() int { return d.cwnd }

// onAck processes acked new bytes; marked reports whether the
// acknowledgement echoed a congestion mark (ECE).
func (d *DCTCP) onAck(acked int, marked bool) {
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

func (d *DCTCP) grow(acked int) {
	if d.cwnd < d.ssthresh {
		// Slow start: one MSS per MSS acked.
		d.cwnd += acked
		if d.cwnd > d.ssthresh {
			d.cwnd = d.ssthresh
		}
		return
	}
	// Congestion avoidance: one MSS per window.
	d.caAcked += acked
	if d.caAcked >= d.cwnd {
		d.caAcked -= d.cwnd
		d.cwnd += d.mss
	}
}

func (d *DCTCP) updateAlpha() {
	f := 0.0
	if d.windowAcked > 0 {
		f = float64(d.windowMarked) / float64(d.windowAcked)
	}
	d.Alpha = (1-dctcpG)*d.Alpha + dctcpG*f
	if d.windowMarked > 0 {
		d.cwnd = int(float64(d.cwnd) * (1 - d.Alpha/2))
		if d.cwnd < d.mss {
			d.cwnd = d.mss
		}
		d.ssthresh = d.cwnd
	}
	d.resetWindowObservation()
}

// halveThreshold sets ssthresh to half the window, floored at two segments:
// packet loss is handled like standard TCP (RFC 8257 §3.2).
func (d *DCTCP) halveThreshold() {
	d.ssthresh = d.cwnd / 2
	if d.ssthresh < 2*d.mss {
		d.ssthresh = 2 * d.mss
	}
}

// onLoss processes a fast-retransmit loss event (once per recovery).
func (d *DCTCP) onLoss() {
	d.halveThreshold()
	d.cwnd = d.ssthresh
	d.resetWindowObservation()
}

// onTimeout processes an RTO.
func (d *DCTCP) onTimeout() {
	d.halveThreshold()
	d.cwnd = d.mss
	d.resetWindowObservation()
}

// restartAfterIdle implements slow-start-after-idle (RFC 2861): after an
// idle period longer than the RTO, the stale window is reset to the initial
// window while ssthresh is preserved, so the connection probes again instead
// of dumping an arbitrarily large burst.
func (d *DCTCP) restartAfterIdle() {
	if d.cwnd > d.iw {
		d.cwnd = d.iw
	}
	d.resetWindowObservation()
}

func (d *DCTCP) resetWindowObservation() {
	d.windowAcked = 0
	d.windowMarked = 0
	d.windowSize = d.cwnd
}
