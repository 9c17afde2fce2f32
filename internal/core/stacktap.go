package core

import (
	"repro/internal/hoststack"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Virtual soft-irq service model: processing a segment occupies its RSS core
// for softirqFixed plus softirqBytesPerNs bytes per nanosecond. The rates
// give a single core roughly 2.8× the host's 12.5 Gb/s line rate, so the
// model queues only when RSS concentrates bursty flows onto one core — the
// per-CPU backlog netstacklat observes in production.
const (
	softirqFixed     = 250 * sim.Nanosecond
	softirqBytesPerN = 5 // bytes processed per nanosecond
)

// softirqCost returns the virtual service time of one segment.
func softirqCost(size int) sim.Time {
	return softirqFixed + sim.Time(size/softirqBytesPerN)
}

// StackSampler is the repository's second host instrument: a
// netstacklat-style host-stack latency tap that runs beside Millisampler
// ("Waiting at the front door", arXiv 2606.02057). Millisampler counts bytes
// at the tc hooks; this tap measures how long each segment spends inside the
// host network stack — the blind spot between the NIC and the socket — as
// per-direction latency histograms (internal/hoststack's bins) on the same
// run window, so the two instruments share one grid inside a SyncRun.
//
// It is a tc filter on both chains, like Sampler, and works out each
// segment's span itself:
//
//   - ingress: NIC arrival (Host.Inject stamps Segment.StackArrival) to
//     socket delivery, where the ingress chain runs. The measured span
//     includes soft-irq stall holds and GRO coalescing delay — the host-side
//     mechanisms the paper's §4.6 artifacts come from — plus a virtual
//     per-core soft-irq service model: each observed segment occupies its
//     RSS core for a deterministic service time, and the wait behind earlier
//     segments on the same core is added to the span. The model is pure
//     bookkeeping (it schedules no events and perturbs nothing), so arming
//     the tap never changes simulation behavior or dataset digests.
//   - egress: the NIC's committed serialization backlog when the egress
//     chain runs, before the NIC commits the segment — how long the segment
//     will sit in the host's transmit path before reaching the wire.
//
// Its hot path (Handle) performs no allocation, enabled or not.
type StackSampler struct {
	runWindow
	// bins is the host's one histogram block, indexed (direction, time
	// bucket, latency bin), direction-major. Production keeps a copy per
	// CPU to avoid contention; the simulation has none, so every core
	// counts into this block.
	bins []uint32

	// busyUntil is the virtual soft-irq model's per-core horizon. It advances
	// on every observed ingress segment while the tap is installed — also
	// between runs — so a run armed mid-burst sees warm queue state.
	busyUntil []sim.Time
}

// NewStackSampler builds a tap for host on cfg's Interval and Buckets. It is
// not yet attached. Like Sampler it registers a crash hook: a crash mid-run
// freezes the run as truncated and the tap is gone.
func NewStackSampler(host *netsim.Host, cfg Config) *StackSampler {
	cfg = cfg.withDefaults()
	s := &StackSampler{runWindow: runWindow{cfg: cfg, host: host}}
	s.bins = make([]uint32, hoststack.NumDirs*cfg.Buckets*hoststack.NumBins)
	s.busyUntil = make([]sim.Time, host.Cores)
	host.OnCrash(func() {
		clear(s.busyUntil)
		s.crash()
	})
	return s
}

// Attach installs the tap on both directions of the host packet path.
func (s *StackSampler) Attach() { s.attach(s) }

// Detach removes the tap, guaranteeing zero per-packet cost until the next
// run.
func (s *StackSampler) Detach() { s.detach(s) }

// Enable arms a run: histograms reset, the first observed segment sets the
// time origin. The soft-irq horizon is continuous state and survives.
func (s *StackSampler) Enable() {
	clear(s.bins)
	s.arm()
}

// Handle implements netsim.Filter — the in-kernel hot path. It works out the
// segment's span and records it.
func (s *StackSampler) Handle(now sim.Time, core int, dir netsim.Direction, seg *netsim.Segment) {
	var span sim.Time
	if dir == netsim.Egress {
		span = s.host.NIC().Backlog()
	} else if seg.StackArrival > 0 && now > seg.StackArrival {
		span = now - seg.StackArrival
	}
	s.observe(now, core, dir, seg, span)
}

// observe records one segment that spent span in the host stack.
func (s *StackSampler) observe(now sim.Time, core int, dir netsim.Direction, seg *netsim.Segment, span sim.Time) {
	if dir == netsim.Ingress {
		// Virtual soft-irq queue: wait behind earlier segments on this core,
		// then occupy it. Runs while the tap is installed, enabled or not, so
		// the queue state is continuous across run boundaries.
		if wait := s.busyUntil[core] - now; wait > 0 {
			span += wait
			s.busyUntil[core] += softirqCost(seg.Size)
		} else {
			s.busyUntil[core] = now + softirqCost(seg.Size)
		}
	}
	if !s.enabled {
		s.DisabledCalls++
		return
	}
	bucket := s.bucket(s.host.Clock.Now(now))
	if bucket < 0 {
		return
	}
	s.bins[(int(dir)*s.cfg.Buckets+bucket)*hoststack.NumBins+hoststack.Bin(span)]++
}

// Read copies the histogram block into a hoststack.Run. Safe to call at any
// time, like Sampler.Read.
func (s *StackSampler) Read() *hoststack.Run {
	r := &hoststack.Run{
		Host:         s.host.ID,
		Interval:     s.cfg.Interval,
		Buckets:      s.cfg.Buckets,
		Started:      s.started,
		StartWall:    s.startWall,
		Truncated:    s.truncated,
		ValidBuckets: s.validBuckets(),
	}
	cell := s.cfg.Buckets * hoststack.NumBins
	for d := range r.Bins {
		r.Bins[d] = append([]uint32(nil), s.bins[d*cell:(d+1)*cell]...)
		if r.Truncated {
			// Drop the partially-filled crash bucket and everything after it.
			clear(r.Bins[d][r.ValidBuckets*hoststack.NumBins:])
		}
	}
	return r
}

// MemoryFootprint returns the in-kernel byte footprint of the production
// per-CPU histogram maps, one block per host core. The simulated tap keeps
// one block.
func (s *StackSampler) MemoryFootprint() int {
	return len(s.bins) * 4 * s.host.Cores
}
