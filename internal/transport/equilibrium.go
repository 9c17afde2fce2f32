package transport

// Equilibrium models for the hybrid-fidelity fast path: closed forms for the
// congestion state a connection converges to, so a fluid interval can hand a
// primed — rather than cold — sender to the segment engine when a burst
// episode starts.

import (
	"math"

	"repro/internal/sim"
)

// EquilibriumWindow returns the steady-state window, in bytes, of a sender
// saturating a path of rate rateBps and base round-trip time rtt against a
// static ECN marking threshold of ecnBytes: the bandwidth-delay product plus
// the standing queue DCTCP holds at the threshold. For the short data-center
// paths simulated here the standing queue dominates.
func EquilibriumWindow(rateBps int64, rtt sim.Time, ecnBytes int) int64 {
	bdp := float64(rateBps) / 8 * rtt.Seconds()
	w := int64(bdp) + int64(ecnBytes)
	if w < 1 {
		w = 1
	}
	return w
}

// EquilibriumMarkFraction returns DCTCP's steady-state fraction of marked
// bytes for a window of w bytes at the given MSS: alpha ≈ sqrt(2/W) with W
// in segments (Alizadeh et al., SIGCOMM 2010, §3.3). It is the fluid model's
// estimate of the ECN-marked share of a saturating transfer.
func EquilibriumMarkFraction(w int64, mss int) float64 {
	if w <= 0 || mss <= 0 {
		return 0
	}
	segs := float64(w) / float64(mss)
	if segs < 1 {
		segs = 1
	}
	f := math.Sqrt(2 / segs)
	if f > 1 {
		f = 1
	}
	return f
}

// prime drives DCTCP's long-run state to the given equilibrium window
// without simulating the traffic that would have produced it. The
// congestion-mark EWMA is seeded with its equilibrium value, so the first
// marked window reacts like an adapted sender rather than a fresh one (alpha
// starts at 0 on a new connection and needs ~1/g windows to converge), and
// the slow-start threshold is set to w (at least two segments) so the first
// burst exits slow start at the adapted point instead of probing from
// scratch. cwnd itself is left alone — after any real idle period the window
// restarts from the initial window anyway (RFC 2861), which is exactly what
// a warmed-up connection in the full-fidelity path does between bursts.
func (d *DCTCP) prime(w int64) {
	d.Alpha = EquilibriumMarkFraction(w, d.mss)
	if min := int64(2 * d.mss); w < min {
		w = min
	}
	if w > math.MaxInt32 {
		w = math.MaxInt32
	}
	d.ssthresh = int(w)
	d.resetWindowObservation()
}
