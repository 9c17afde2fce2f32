// Package switchsim models the shared-memory top-of-rack switch the paper
// studies: a 16 MB packet buffer split into four quadrants, per-queue
// dedicated reserves, a Choudhury–Hahne dynamic-threshold (DT) policy over
// the shared pool, static-threshold ECN marking, and cumulative per-queue
// enqueue and congestion-discard counters. The paper's per-minute switch
// figures (14, 17) come from window deltas of those counters, extrapolated
// to a minute as fleet.RunSummary.IngressPerMin.
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
