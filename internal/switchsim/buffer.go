// Package switchsim models the shared-memory top-of-rack switch the paper
// studies: a 16 MB packet buffer split into four quadrants, per-queue
// dedicated reserves, a Choudhury–Hahne dynamic-threshold (DT) policy over
// the shared pool, static-threshold ECN marking, and cumulative per-queue
// enqueue and congestion-discard counters. The paper's per-minute switch
// figures (14, 17) come from window deltas of those counters, extrapolated
// to a minute as fleet.RunSummary.IngressPerMin.
package switchsim

// DT is the dynamic threshold state for one shared pool (one quadrant).
// The maximum instantaneous length of each queue's shared portion is
//
//	T(t) = Alpha * (Cap - Used(t))
//
// where Cap is the shared pool size and Used(t) the pool's total occupancy
// (paper §2.1.1, after Choudhury & Hahne 1998).
type DT struct {
	Alpha float64
	Cap   int // shared pool capacity in bytes
	Used  int // current shared occupancy in bytes
}

// Threshold returns the instantaneous per-queue limit T(t) in bytes.
func (d *DT) Threshold() int {
	free := d.Cap - d.Used
	if free <= 0 {
		return 0
	}
	return int(d.Alpha * float64(free))
}

// Admit reports whether a queue currently holding queueShared bytes of the
// pool may add size more bytes, and charges the pool if so.
func (d *DT) Admit(queueShared, size int) bool {
	if d.Used+size > d.Cap {
		return false
	}
	if queueShared+size > d.Threshold() {
		return false
	}
	d.Used += size
	return true
}

// Release returns size bytes to the pool.
func (d *DT) Release(size int) {
	d.Used -= size
	if d.Used < 0 {
		panic("switchsim: shared pool released below zero")
	}
}

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
