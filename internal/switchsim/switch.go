package switchsim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Policy selects the shared-buffer admission discipline. The studied fleet
// runs dynamic thresholds (Choudhury–Hahne); the alternatives bound the
// design space the paper's §9 discussion positions DT within, and back the
// buffer-sharing policy ablation.
type Policy int

const (
	// PolicyDT is the production dynamic-threshold policy:
	// T(t) = alpha * (shared capacity - shared occupancy).
	PolicyDT Policy = iota
	// PolicyStatic partitions the shared pool equally among the quadrant's
	// queues: maximal isolation, no burst absorption headroom.
	PolicyStatic
	// PolicyComplete admits any segment while the pool has room: maximal
	// absorption, no isolation (one queue can starve the quadrant).
	PolicyComplete
	// PolicyBShare bounds each queue's shared occupancy by the bytes its
	// line rate drains within BShareDelayTarget, capping the queueing delay
	// any admitted packet can see (after BShare).
	PolicyBShare
	// PolicyABM scales the dynamic threshold by each queue's drain rate over
	// its line rate (after ABM). Every non-empty queue here drains at line
	// rate, so the factor is 1 and ABM admits exactly as DT does.
	PolicyABM
)

// ECNOff disables ECN marking when assigned to Config.ECNThreshold. The
// sentinel exists because a zero threshold means "use the 120 KB default" —
// without it an ECN-disabled counterfactual was unexpressible.
const ECNOff = -1

// Quadrants is the number of independent shared pools in the buffer. An
// egress queue maps to a quadrant as a function of its port index.
const Quadrants = 4

// DownlinkProp is the ToR-to-server propagation delay. Delivery folds it into
// the departure event; the fluid model's base RTT reads it.
const DownlinkProp = 2 * sim.Microsecond

// DefaultBShareDelayTarget is the BShare per-queue queueing-delay budget:
// 200 us of line-rate drain (~312 KB at 12.5 Gbps), between the ECN marking
// point and a lone DT queue's share.
const DefaultBShareDelayTarget = 200 * sim.Microsecond

// Config parameterizes a ToR switch. The defaults mirror the switch class the
// paper studies (§3): 16 MB buffer in four 4 MB quadrants, most of each
// quadrant shared, alpha = 1, and a 120 KB static ECN threshold.
type Config struct {
	// Policy selects the shared-buffer admission discipline (default DT).
	Policy Policy
	// Ports is the number of server-facing downlinks; each maps to exactly
	// one egress queue (each server gets its own queue).
	Ports int
	// TotalBuffer is the packet buffer size in bytes (default 16 MB).
	TotalBuffer int
	// DedicatedPerQueue is the reserve each queue owns outside the shared
	// pool (default sized so each quadrant's shared pool is about 3.6 MB).
	DedicatedPerQueue int
	// Alpha is the DT parameter (default 1: a lone queue may take half the
	// free shared buffer).
	Alpha float64
	// ECNThreshold is the static per-queue marking threshold in bytes
	// (default 120 KB, the fleet-wide production setting). ECNOff (-1)
	// disables marking entirely.
	ECNThreshold int
	// BShareDelayTarget is the per-queue queueing-delay budget BShare admits
	// against (default 200 us). Ignored by the other policies.
	BShareDelayTarget sim.Time
	// Pool is the segment pool drops and multicast replication recycle into.
	// Leave nil for a private pool; topologies share one pool per engine.
	Pool *netsim.SegmentPool
}

// DefaultConfig returns the production-mirroring configuration for a rack
// with the given number of server ports.
func DefaultConfig(ports int) Config {
	return Config{
		Ports:             ports,
		TotalBuffer:       16 << 20,
		DedicatedPerQueue: 0, // derived in New: quadrant size minus 3.6 MB shared
		Alpha:             1.0,
		ECNThreshold:      120 << 10,
	}
}

// queue is one egress queue: the FIFO toward a single server.
type queue struct {
	port     int
	quadrant int

	fifo  segFIFO
	bytes int // total occupancy (dedicated + shared portions)

	dedicatedCap  int
	dedicatedUsed int
	sharedUsed    int

	busy bool // a departure event is in flight

	stats QueueStats
}

// QueueStats are the cumulative per-queue counters the switch exposes; the
// production analog is the per-queue congestion-discard and traffic counters
// polled at one-minute granularity (paper Figs. 14, 17).
type QueueStats struct {
	EnqueuedBytes    int64
	EnqueuedSegments int64
	DiscardBytes     int64
	DiscardSegments  int64
	ECNMarkedBytes   int64
	ECNMarkedSegs    int64
	DequeuedBytes    int64
	PeakBytes        int
}

// Switch is a shared-memory ToR.
type Switch struct {
	cfg           Config
	eng           *sim.Engine
	queues        []*queue
	rule          rule           // the configured sharing policy
	sharedCap     int            // one quadrant's shared pool, in bytes
	used          [Quadrants]int // each quadrant's shared-pool occupancy
	margins       Margins        // the rules no admission has told apart yet
	markThreshold int            // effective ECN threshold; maxint when off
	links         []*netsim.Link
	segPool       *netsim.SegmentPool
	sinks         []netsim.Deliver // per-port delivery into the server host

	groups map[netsim.GroupID][]int // multicast subscriptions: group -> ports

	// TotalDiscards aggregates drops across queues for quick health checks.
	TotalDiscards int64
}

// withDefaults fills zero fields with the production-mirroring defaults and
// derives the dedicated reserve when unset.
func (c Config) withDefaults() Config {
	if c.TotalBuffer <= 0 {
		c.TotalBuffer = 16 << 20
	}
	if c.Alpha == 0 {
		c.Alpha = 1.0
	}
	if c.ECNThreshold == 0 {
		c.ECNThreshold = 120 << 10
	}
	if c.BShareDelayTarget == 0 {
		c.BShareDelayTarget = DefaultBShareDelayTarget
	}
	quadSize := c.TotalBuffer / Quadrants
	queuesPerQuad := 0
	if c.Ports > 0 {
		queuesPerQuad = (c.Ports + Quadrants - 1) / Quadrants
	}
	if c.DedicatedPerQueue == 0 {
		// Paper: "a small amount is made available as dedicated buffer for
		// each queue, and the rest, about 3.6MB, is shared". Derive the
		// dedicated reserve from that shared target.
		sharedTarget := 3600 << 10
		if quadSize > sharedTarget && queuesPerQuad > 0 {
			c.DedicatedPerQueue = (quadSize - sharedTarget) / queuesPerQuad
		} else {
			c.DedicatedPerQueue = 16 << 10
		}
	}
	return c
}

// Validate reports whether the configuration (after defaults) can build a
// working switch. Config-driven tools — sweep specs above all — should call
// it before New, which treats an invalid configuration as an invariant
// violation. Policy, Alpha, and the ECN threshold are checked here so a
// counterfactual grid fails fast at spec expansion instead of panicking
// mid-sweep.
func (c Config) Validate() error {
	if c.Ports <= 0 {
		return errors.New("switchsim: switch needs at least one port")
	}
	if !c.Policy.Known() {
		return fmt.Errorf("switchsim: unknown sharing policy %d", int(c.Policy))
	}
	if math.IsNaN(c.Alpha) || math.IsInf(c.Alpha, 0) || c.Alpha < 0 {
		return fmt.Errorf("switchsim: Alpha %v is not a usable DT parameter", c.Alpha)
	}
	c = c.withDefaults()
	if c.BShareDelayTarget < 0 {
		return fmt.Errorf("switchsim: BShare delay target %v is negative", c.BShareDelayTarget)
	}
	// ECNOff (-1) is the only negative threshold with a meaning; other
	// negatives are mistakes, not "very aggressive marking".
	if c.ECNThreshold != ECNOff && (c.ECNThreshold < 0 || c.ECNThreshold > c.TotalBuffer) {
		return fmt.Errorf("switchsim: ECN threshold %d outside the %d-byte buffer (use ECNOff to disable)",
			c.ECNThreshold, c.TotalBuffer)
	}
	if sharedCap, queuesPerQuad := c.pool(); sharedCap <= 0 {
		return fmt.Errorf("switchsim: dedicated reserves (%d x %d) exceed quadrant size %d",
			c.DedicatedPerQueue, queuesPerQuad, c.TotalBuffer/Quadrants)
	}
	return nil
}

// pool returns one quadrant's shared pool in bytes and the queues it serves.
// c has its defaults applied.
func (c Config) pool() (sharedCap, queuesPerQuad int) {
	queuesPerQuad = (c.Ports + Quadrants - 1) / Quadrants
	return c.TotalBuffer/Quadrants - c.DedicatedPerQueue*queuesPerQuad, queuesPerQuad
}

// New builds a switch. Per-port sinks must be wired with ConnectPort before
// traffic flows.
func New(eng *sim.Engine, cfg Config) *Switch {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	cfg = cfg.withDefaults()
	if cfg.Pool == nil {
		cfg.Pool = netsim.NewSegmentPool()
	}
	sharedCap, queuesPerQuad := cfg.pool()
	own := cfg
	own.Pool = nil

	sw := &Switch{
		cfg:           cfg,
		eng:           eng,
		queues:        make([]*queue, cfg.Ports),
		rule:          newRule(cfg, sharedCap, queuesPerQuad),
		sharedCap:     sharedCap,
		margins:       Margins{cfg: own, alphaHi: math.Inf(1), quotaHi: math.MaxInt},
		markThreshold: cfg.ECNThreshold,
		links:         make([]*netsim.Link, cfg.Ports),
		segPool:       cfg.Pool,
		sinks:         make([]netsim.Deliver, cfg.Ports),
		groups:        make(map[netsim.GroupID][]int),
	}
	if cfg.ECNThreshold == ECNOff {
		// No queue reaches maxint bytes, so the enqueue hot path keeps its
		// single unconditional comparison whether marking is on or off.
		sw.markThreshold = math.MaxInt
	}
	for p := 0; p < cfg.Ports; p++ {
		sw.queues[p] = &queue{
			port:         p,
			quadrant:     p % Quadrants,
			dedicatedCap: cfg.DedicatedPerQueue,
		}
		sw.links[p] = netsim.NewLink(eng, netsim.DefaultServerRateBps, DownlinkProp)
		sw.links[p].SetPool(cfg.Pool)
	}
	return sw
}

// Pool returns the switch's segment pool.
func (s *Switch) Pool() *netsim.SegmentPool { return s.segPool }

// Config returns the effective configuration.
func (s *Switch) Config() Config { return s.cfg }

// SharedCap returns one quadrant's shared pool capacity in bytes.
func (s *Switch) SharedCap() int { return s.sharedCap }

// ConnectPort wires downlink port p to a delivery function (normally the
// server host's Inject).
func (s *Switch) ConnectPort(p int, deliver netsim.Deliver) {
	s.sinks[p] = deliver
}

// Subscribe adds port p to a rack-local multicast group.
func (s *Switch) Subscribe(group netsim.GroupID, p int) {
	s.groups[group] = append(s.groups[group], p)
}

// ForwardFromFabric accepts a segment destined to a downlink port — from the
// fabric, or hairpinned from a rack server. This is the congested direction
// the paper analyzes; the uplink direction is modeled uncongested (most
// congestion in this fleet is on the server-link, and ECN is deployed only
// on the ToR, §3), so server egress toward the fabric never enters the
// switch: the topology carries it. Multicast is rack-local and replicates to
// the group's subscribers whatever port is named.
func (s *Switch) ForwardFromFabric(port int, seg *netsim.Segment) {
	if seg.Is(netsim.FlagMulticast) {
		s.replicate(seg)
		return
	}
	s.enqueue(port, seg)
}

// replicate copies a multicast segment into every subscribed queue. The
// original's path ends here: each subscriber gets a pool-owned clone and the
// source segment recycles.
func (s *Switch) replicate(seg *netsim.Segment) {
	for _, p := range s.groups[seg.Group] {
		s.enqueue(p, s.segPool.Clone(seg))
	}
	s.segPool.Put(seg)
}

func (s *Switch) enqueue(port int, seg *netsim.Segment) {
	if port < 0 || port >= len(s.queues) {
		panic(fmt.Sprintf("switchsim: no such port %d", port))
	}
	q := s.queues[port]

	// Admission: spend the queue's dedicated reserve first, then ask the
	// configured sharing rule for the remainder. A segment is dropped
	// whole — the cell-level partial-admit real ASICs do is below our
	// granularity.
	fromDedicated := q.dedicatedCap - q.dedicatedUsed
	if fromDedicated > seg.Size {
		fromDedicated = seg.Size
	}
	needShared := seg.Size - fromDedicated
	if needShared > 0 && !s.admit(q, needShared) {
		q.stats.DiscardBytes += int64(seg.Size)
		q.stats.DiscardSegments++
		s.TotalDiscards++
		s.segPool.Put(seg)
		return
	}
	q.dedicatedUsed += fromDedicated
	q.sharedUsed += needShared
	seg.EnqueuedShared = needShared
	q.bytes += seg.Size
	if q.bytes > q.stats.PeakBytes {
		q.stats.PeakBytes = q.bytes
	}
	q.stats.EnqueuedBytes += int64(seg.Size)
	q.stats.EnqueuedSegments++

	// Static-threshold ECN marking on enqueue, production style.
	if q.bytes >= s.markThreshold && seg.Is(netsim.FlagECT) {
		seg.Flags |= netsim.FlagCE
		q.stats.ECNMarkedBytes += int64(seg.Size)
		q.stats.ECNMarkedSegs++
	}

	q.fifo.Push(seg)
	if !q.busy {
		s.startDrain(q)
	}
}

// admit asks the sharing rule whether q may take size more bytes of its
// quadrant's shared pool, charging the pool if so, and narrows the margins by
// the answer. Without room it refuses before asking, so no margin moves; an
// α bound is computed only when the answer moves it. The update stays in this
// body, not behind a call: admit is the packet path's hottest function.
func (s *Switch) admit(q *queue, size int) bool {
	free := s.sharedCap - s.used[q.quadrant]
	if size > free {
		return false
	}
	n, m := q.sharedUsed+size, &s.margins
	ok := s.rule.admits(n, free)
	if ok {
		s.used[q.quadrant] += size
		m.quotaLo = max(m.quotaLo, n)
		if float64(n) > m.alphaLo*float64(free) {
			m.alphaLo = alphaBound(n, free)
		}
	} else {
		m.quotaHi = min(m.quotaHi, n)
		if float64(n) <= m.alphaHi*float64(free) {
			m.alphaHi = alphaBound(n, free)
		}
	}
	return ok
}

// startDrain launches the departure loop for a newly busy queue.
func (s *Switch) startDrain(q *queue) {
	q.busy = true
	s.drainNext(q)
}

func (s *Switch) drainNext(q *queue) {
	if q.fifo.Len() == 0 {
		q.busy = false
		return
	}
	seg := q.fifo.Front()
	tx := s.links[q.port].SerializationDelay(seg.Size)
	// A busy queue has exactly one departure event in flight and only the
	// departure removes the head, so finishTx can re-read the front instead
	// of capturing seg in a closure: the whole drain loop runs on pooled
	// events with zero allocations.
	s.eng.AfterCall(tx, finishTx, s, q, 0)
}

// finishTx completes one transmission: free the buffer cell, hand the segment
// to the propagation stage, continue with the next segment.
func finishTx(a1, a2 any, _ int64) {
	s := a1.(*Switch)
	q := a2.(*queue)
	seg := q.fifo.Front()
	q.fifo.PopFront()
	q.bytes -= seg.Size
	q.dedicatedUsed -= seg.Size - seg.EnqueuedShared
	if seg.EnqueuedShared > 0 {
		if s.used[q.quadrant] -= seg.EnqueuedShared; s.used[q.quadrant] < 0 {
			panic("switchsim: shared pool released below zero")
		}
		q.sharedUsed -= seg.EnqueuedShared
	}
	q.stats.DequeuedBytes += int64(seg.Size)
	// Deliver synchronously: the downlink propagation delay (a couple of
	// microseconds of fiber) is folded into this event rather than costing a
	// second event per segment; at 1 ms sampling buckets the shift is
	// invisible and the drain rate stays exact. An unwired port terminates
	// the path, so the segment recycles.
	if sink := s.sinks[q.port]; sink != nil {
		sink(seg)
	} else {
		s.segPool.Put(seg)
	}
	s.drainNext(q)
}

// QueueBytes returns port p's instantaneous occupancy.
func (s *Switch) QueueBytes(p int) int { return s.queues[p].bytes }

// QueueStats returns a copy of port p's cumulative counters.
func (s *Switch) QueueStats(p int) QueueStats { return s.queues[p].stats }

// SharedUsed returns the occupancy of quadrant q's shared pool.
func (s *Switch) SharedUsed(q int) int { return s.used[q] }

// Threshold returns the instantaneous shared-occupancy limit the configured
// policy grants port p's queue (the DT formula under DT and ABM, the quota
// under static/BShare, the pool room under complete sharing).
func (s *Switch) Threshold(p int) int {
	return s.rule.limit(s.sharedCap - s.used[s.queues[p].quadrant])
}

// PeakQueueBytes returns the highest occupancy any single egress queue
// reached — the burst-absorption headroom figure the sharing-policy
// counterfactuals compare (complete ≥ DT ≥ static under overload).
func (s *Switch) PeakQueueBytes() int {
	peak := 0
	for _, q := range s.queues {
		if q.stats.PeakBytes > peak {
			peak = q.stats.PeakBytes
		}
	}
	return peak
}

// AccountFluid credits traffic the fluid model carried through port p's
// egress queue. Only counters move: occupancy, DT pool state, and drain
// events are untouched, because fluid traffic has conceptually already left
// the queue by the time it is accounted. PeakBytes raises the queue's peak
// if the fluid backlog estimate exceeds what the packet path observed.
func (s *Switch) AccountFluid(p int, st QueueStats) {
	if p < 0 || p >= len(s.queues) {
		return
	}
	q := s.queues[p]
	q.stats.EnqueuedBytes += st.EnqueuedBytes
	q.stats.EnqueuedSegments += st.EnqueuedSegments
	q.stats.DequeuedBytes += st.DequeuedBytes
	q.stats.ECNMarkedBytes += st.ECNMarkedBytes
	q.stats.ECNMarkedSegs += st.ECNMarkedSegs
	if st.PeakBytes > q.stats.PeakBytes {
		q.stats.PeakBytes = st.PeakBytes
	}
}

// Totals sums the per-queue stats switch-wide.
func (s *Switch) Totals() QueueStats {
	var t QueueStats
	for _, q := range s.queues {
		t.EnqueuedBytes += q.stats.EnqueuedBytes
		t.EnqueuedSegments += q.stats.EnqueuedSegments
		t.DiscardBytes += q.stats.DiscardBytes
		t.DiscardSegments += q.stats.DiscardSegments
		t.ECNMarkedBytes += q.stats.ECNMarkedBytes
		t.ECNMarkedSegs += q.stats.ECNMarkedSegs
		t.DequeuedBytes += q.stats.DequeuedBytes
	}
	return t
}
