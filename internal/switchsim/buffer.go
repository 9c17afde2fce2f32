// Package switchsim models the shared-memory top-of-rack switch the paper
// studies: a 16 MB packet buffer split into four quadrants, per-queue
// dedicated reserves, static-threshold ECN marking, and cumulative per-queue
// enqueue and congestion-discard counters. Admission to a quadrant's shared
// pool is one stateless rule per Policy, evaluated on the pool occupancy the
// switch keeps: room for the segment, then the queue's shared bytes within
// the policy's limit — the Choudhury–Hahne dynamic threshold (DT) of Fig 1 in
// production, a fixed quota or the pool's room in the alternatives. Each
// answer narrows the switch's Margins, the rules that would have answered
// alike, so a sweep can tell whether another rule's run would differ. The
// paper's per-minute switch figures (14, 17) come from window deltas of
// those counters, extrapolated to a minute as fleet.RunSummary.IngressPerMin.
package switchsim

// SteadyShare returns the equilibrium fraction of the shared buffer each of s
// simultaneously saturating queues obtains under DT with parameter alpha:
//
//	T = alpha*B / (1 + alpha*s)
//
// normalized by B. This is the curve of the paper's Figure 1 and the
// quantity the contention analysis converts contention levels into.
func SteadyShare(alpha float64, s int) float64 {
	if s < 0 {
		panic("switchsim: negative queue count")
	}
	return alpha / (1 + alpha*float64(s))
}
