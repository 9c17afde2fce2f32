package netsim

import (
	"repro/internal/sim"
)

// Deliver is the continuation a Link invokes when a segment finishes
// traversing it.
type Deliver func(seg *Segment)

// Link is a point-to-point serializing link: segments queue behind each other
// at the line rate and then experience fixed propagation delay. A Link has
// unbounded FIFO occupancy — bounded buffering belongs to the switch model —
// so it is used where the sender already paces (NIC egress) or where the
// paper treats capacity as ample (fabric core). Transmit is the primitive —
// commit the segment, learn when it is through; Send adds the event that
// calls a continuation at that time.
type Link struct {
	eng       *sim.Engine
	RateBps   int64    // line rate in bits per second; <=0 means infinite
	PropDelay sim.Time // one-way propagation delay

	busyUntil sim.Time
	// TxBytes counts bytes accepted for transmission, for utilization checks.
	TxBytes int64

	// DropRate, when positive, makes the link randomly lose that fraction
	// of segments — used by robustness tests to exercise transport recovery
	// independently of switch buffer dynamics.
	DropRate float64
	dropRNG  *sim.RNG
	// Drops counts segments lost to DropRate.
	Drops int64

	// pool, when set, recycles segments the link drops; a drop terminates the
	// segment's path, so the link owns the release.
	pool *SegmentPool
}

// NewLink creates a link on the engine.
func NewLink(eng *sim.Engine, rateBps int64, prop sim.Time) *Link {
	return &Link{eng: eng, RateBps: rateBps, PropDelay: prop}
}

// SetPool wires the segment pool drops recycle into.
func (l *Link) SetPool(p *SegmentPool) { l.pool = p }

// SerializationDelay returns how long size bytes occupy the link.
func (l *Link) SerializationDelay(size int) sim.Time {
	if l.RateBps <= 0 {
		return 0
	}
	return sim.Time(int64(size) * 8 * int64(sim.Second) / l.RateBps)
}

// Transmit commits seg to the link — the DropRate fault model, then FIFO
// serialization behind whatever is already queued — and returns the instant
// its last bit arrives at the far end. ok is false when the fault model lost
// the segment (already recycled). Nothing is scheduled: the caller decides
// what happens at that instant, which lets a topology fold the link hop into
// the event of the hop that follows it (Host.Send).
func (l *Link) Transmit(seg *Segment) (at sim.Time, ok bool) {
	if l.DropRate > 0 {
		if l.dropRNG == nil {
			l.dropRNG = sim.NewRNG(0x11AC + uint64(l.RateBps))
		}
		if l.dropRNG.Bool(l.DropRate) {
			l.Drops++
			if l.pool != nil {
				l.pool.Put(seg)
			}
			return 0, false
		}
	}
	start := l.eng.Now()
	if l.busyUntil > start {
		start = l.busyUntil
	}
	l.busyUntil = start + l.SerializationDelay(seg.Size)
	l.TxBytes += int64(seg.Size)
	return l.busyUntil + l.PropDelay, true
}

// Send is Transmit for a standalone link: it schedules deliver at the time
// the last bit arrives at the far end.
func (l *Link) Send(seg *Segment, deliver Deliver) {
	if at, ok := l.Transmit(seg); ok {
		l.eng.AtCall(at, linkDeliver, seg, deliver, 0)
	}
}

// linkDeliver is the pooled-event continuation of Send: a1 is the segment,
// a2 the Deliver. Both are pointer-shaped, so scheduling it allocates nothing.
func linkDeliver(a1, a2 any, _ int64) { a2.(Deliver)(a1.(*Segment)) }

// Backlog returns how far in the future the link is already committed,
// i.e. the local queueing delay a new segment would see.
func (l *Link) Backlog() sim.Time {
	now := l.eng.Now()
	if l.busyUntil <= now {
		return 0
	}
	return l.busyUntil - now
}
