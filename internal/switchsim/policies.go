package switchsim

import "repro/internal/netsim"

// rule is one sharing discipline's admission test over a quadrant's shared
// pool. Every discipline has the paper's Fig 1 shape: a segment needs room in
// the pool, and its queue's shared bytes must stay within one limit. The
// switch owns the pool's occupancy; a rule holds no state.
type rule struct {
	policy Policy
	alpha  float64
	quota  int // static and BShare: the fixed per-queue limit in bytes
}

// newRule sizes cfg's rule for a pool of sharedCap bytes over
// queuesPerQuadrant queues. cfg has its defaults applied.
func newRule(cfg Config, sharedCap, queuesPerQuadrant int) rule {
	r := rule{policy: cfg.Policy, alpha: cfg.Alpha}
	switch cfg.Policy {
	case PolicyStatic:
		// Equal per-queue partitions: maximal isolation, no burst-absorption
		// headroom beyond the quota.
		r.quota = sharedCap / queuesPerQuadrant
	case PolicyBShare:
		// A queue may hold BShareDelayTarget's worth of line-rate drain, so
		// the delay any admitted packet can see is bounded whatever the pool
		// pressure. The line rate, not a measured one: every non-empty queue
		// here drains at exactly its line rate, and a measured estimate
		// decayed across idle gaps would starve the first burst after a
		// quiet spell.
		q := int(cfg.BShareDelayTarget.Seconds() * float64(netsim.DefaultServerRateBps) / 8)
		r.quota = max(min(q, sharedCap), 1)
	}
	return r
}

// limit is the most shared bytes a queue may hold while free bytes of the
// pool are unused — the T the paper's Fig 1 plots for DT. ABM scales DT's
// limit by a queue's drain rate over its line rate; in this switch a
// non-empty queue always drains at line rate, so the factor is exactly 1
// (TestABMDrainFactorIsOne) and ABM's limit is DT's. Complete sharing's
// limit is the room itself.
func (r rule) limit(free int) int {
	switch r.policy {
	case PolicyDT, PolicyABM:
		return int(r.alpha * float64(free))
	case PolicyComplete:
		return free
	default:
		return r.quota
	}
}

// admits reports whether a queue may hold n shared bytes while free bytes of
// the pool are unused: whether n stays within its limit. The room a segment
// needs is the switch's test, made first (Switch.admit); complete sharing
// admits whatever fits.
func (r rule) admits(n, free int) bool {
	return r.policy == PolicyComplete || n <= r.limit(free)
}
