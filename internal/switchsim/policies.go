package switchsim

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// SharingPolicy is one quadrant's shared-pool admission discipline. The
// switch builds one instance per quadrant; every method call refers to that
// quadrant's pool. Queues are identified by their index within the quadrant
// (0..queuesPerQuadrant-1). Implementations must conserve bytes (everything
// admitted is eventually released, and occupancy never exceeds Cap or drops
// below zero) and must not allocate on the Admit/Release/OnDequeue hot path —
// the switch's zero-alloc enqueue/dequeue guarantee rides through them.
type SharingPolicy interface {
	// Admit reports whether queue qi — currently holding queueShared bytes
	// of the pool — may add size more bytes at time now, charging the pool
	// if so.
	Admit(qi, queueShared, size int, now sim.Time) bool
	// Release returns size bytes to the pool.
	Release(size int)
	// Threshold returns queue qi's instantaneous shared-occupancy limit in
	// bytes — the quantity the paper's Fig 1 plots for DT.
	Threshold(qi int, now sim.Time) int
	// OnDequeue observes size bytes leaving queue qi at now with remaining
	// bytes still enqueued — the hook drain-rate estimators (ABM) feed from.
	// remaining == 0 marks the end of a busy period.
	OnDequeue(qi, size, remaining int, now sim.Time)
	// Used reports the pool's current occupancy in bytes.
	Used() int
	// Cap reports the pool's capacity in bytes.
	Cap() int
}

// sharedPool is the occupancy accounting common to every policy.
type sharedPool struct {
	capBytes, used int
}

func (p *sharedPool) room(size int) bool { return p.used+size <= p.capBytes }

func (p *sharedPool) Release(size int) {
	p.used -= size
	if p.used < 0 {
		panic("switchsim: shared pool released below zero")
	}
}

func (p *sharedPool) Used() int { return p.used }
func (p *sharedPool) Cap() int  { return p.capBytes }

// dtPolicy is the Choudhury–Hahne dynamic threshold over one quadrant's
// shared pool (paper §2.1.1): a queue's shared portion may grow to
//
//	T(t) = Alpha * (Cap - Used(t))
//
// where Cap is the pool size and Used(t) its total occupancy. SteadyShare is
// its closed-form equilibrium.
type dtPolicy struct {
	sharedPool
	alpha float64
}

func newDTPolicy(cfg Config, sharedCap, _ int) SharingPolicy {
	return &dtPolicy{sharedPool: sharedPool{capBytes: sharedCap}, alpha: cfg.Alpha}
}

func (p *dtPolicy) Admit(_, queueShared, size int, now sim.Time) bool {
	if !p.room(size) || queueShared+size > p.Threshold(0, now) {
		return false
	}
	p.used += size
	return true
}

func (p *dtPolicy) Threshold(int, sim.Time) int {
	free := p.capBytes - p.used
	if free <= 0 {
		return 0
	}
	return int(p.alpha * float64(free))
}

func (p *dtPolicy) OnDequeue(int, int, int, sim.Time) {}

// quotaPolicy caps every queue's shared portion at one fixed quota. Static
// partitioning and BShare differ only in how the quota is sized.
type quotaPolicy struct {
	sharedPool
	quota int
}

// newStaticPolicy partitions the pool into equal per-queue quotas: maximal
// isolation, no burst-absorption headroom beyond the quota.
func newStaticPolicy(_ Config, sharedCap, queuesPerQuadrant int) SharingPolicy {
	return &quotaPolicy{sharedPool: sharedPool{capBytes: sharedCap}, quota: sharedCap / queuesPerQuadrant}
}

// newBSharePolicy admits by estimated packet queueing delay (after BShare):
// a queue may hold shared bytes only up to BShareDelayTarget's worth at its
// nominal drain rate, so the delay any admitted packet can experience is
// bounded regardless of pool pressure. The quota uses the line rate, not a
// measured one: in this switch every non-empty queue drains at exactly its
// line rate, and a measured estimate decayed across idle gaps would
// spuriously starve the first burst after a quiet spell.
func newBSharePolicy(cfg Config, sharedCap, _ int) SharingPolicy {
	q := int(cfg.BShareDelayTarget.Seconds() * float64(netsim.DefaultServerRateBps) / 8)
	return &quotaPolicy{sharedPool: sharedPool{capBytes: sharedCap}, quota: max(min(q, sharedCap), 1)}
}

func (p *quotaPolicy) Admit(_, queueShared, size int, _ sim.Time) bool {
	if queueShared+size > p.quota || !p.room(size) {
		return false
	}
	p.used += size
	return true
}
func (p *quotaPolicy) Threshold(int, sim.Time) int       { return p.quota }
func (p *quotaPolicy) OnDequeue(int, int, int, sim.Time) {}

// completePolicy admits anything while the pool has room: maximal absorption,
// no isolation (one queue can starve the quadrant).
type completePolicy struct{ sharedPool }

func newCompletePolicy(_ Config, sharedCap, _ int) SharingPolicy {
	return &completePolicy{sharedPool{capBytes: sharedCap}}
}

func (p *completePolicy) Admit(_, _, size int, _ sim.Time) bool {
	if !p.room(size) {
		return false
	}
	p.used += size
	return true
}
func (p *completePolicy) Threshold(int, sim.Time) int       { return p.capBytes - p.used }
func (p *completePolicy) OnDequeue(int, int, int, sim.Time) {}

const (
	// abmTau is the ABM drain-rate EWMA time constant: long enough to smooth
	// per-segment serialization jitter, short against the 1 s sampling window.
	abmTau = sim.Millisecond
	// abmMinMu floors the normalized drain-rate estimate so a mis-measured
	// queue can always claw back some shared buffer (its dedicated reserve
	// keeps it dequeuing, which feeds the estimator and recovers mu).
	abmMinMu = 0.05
)

// abmPolicy scales the dynamic threshold by each queue's measured drain rate
// (after ABM): T(qi) = Alpha × (Cap − Used) × mu(qi), where mu is the
// queue's dequeue-rate EWMA normalized by the line rate. Queues that drain
// slowly get proportionally less of the pool; under this simulator's uniform
// always-line-rate drains mu sits near 1 and ABM tracks DT, diverging only
// when drains stall.
type abmPolicy struct {
	sharedPool
	alpha   float64
	lineBps float64
	mu      []float64
	last    []sim.Time
	primed  []bool // last dequeue belonged to a still-running busy period
}

func newABMPolicy(cfg Config, sharedCap, queuesPerQuadrant int) SharingPolicy {
	p := &abmPolicy{
		sharedPool: sharedPool{capBytes: sharedCap},
		alpha:      cfg.Alpha,
		lineBps:    float64(netsim.DefaultServerRateBps),
		mu:         make([]float64, queuesPerQuadrant),
		last:       make([]sim.Time, queuesPerQuadrant),
		primed:     make([]bool, queuesPerQuadrant),
	}
	for i := range p.mu {
		p.mu[i] = 1 // unmeasured queues are assumed to drain at line rate
	}
	return p
}

func (p *abmPolicy) Admit(qi, queueShared, size int, now sim.Time) bool {
	if !p.room(size) {
		return false
	}
	if queueShared+size > p.Threshold(qi, now) {
		return false
	}
	p.used += size
	return true
}

func (p *abmPolicy) Threshold(qi int, _ sim.Time) int {
	free := p.capBytes - p.used
	if free <= 0 {
		return 0
	}
	return int(p.alpha * float64(free) * p.mu[qi])
}

func (p *abmPolicy) OnDequeue(qi, size, remaining int, now sim.Time) {
	if p.primed[qi] {
		if dt := now - p.last[qi]; dt > 0 {
			inst := float64(size) * 8 / dt.Seconds() / p.lineBps
			if inst > 1 {
				inst = 1
			}
			w := float64(dt) / float64(abmTau)
			if w > 1 {
				w = 1
			}
			m := p.mu[qi] + w*(inst-p.mu[qi])
			if m < abmMinMu {
				m = abmMinMu
			}
			p.mu[qi] = m
		}
	}
	// A drained queue ends its busy period; the gap to its next dequeue is
	// idle time, not service time, and must not count as a rate sample.
	p.primed[qi] = remaining > 0
	p.last[qi] = now
}
