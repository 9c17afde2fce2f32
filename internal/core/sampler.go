// Package core implements the paper's primary contribution: Millisampler, a
// lightweight host-side traffic characterization tool, and SyncMillisampler,
// its rack-synchronized collection mode.
//
// Millisampler mirrors the production architecture (paper §4.1-§4.2):
//
//   - a tc-filter equivalent attached to the host packet path on both
//     directions, executing on the CPU core that processes the packet;
//   - one counter block per host (production's per-CPU copies, which only
//     a harvest ever sums, folded into one) of 2000 time buckets per
//     measured quantity: ingress bytes, ingress retransmitted bytes, egress
//     bytes, egress retransmitted bytes, ECN(CE)-marked ingress bytes, and
//     a 128-bit connection sketch;
//   - start-on-first-packet semantics: the run's time origin is the host
//     timestamp of the first packet observed while enabled;
//   - self-clearing enabled flag: a packet falling beyond the last bucket
//     disables collection, signalling completion to user-space;
//   - detach-when-idle: user code detaches the filter after the run so the
//     disabled-path cost between runs is zero.
//
// The host-stack latency tap (StackSampler) follows the same run rules
// through the same runWindow and attaches as a tc filter the same way, so
// both series share one grid.
package core

import (
	"sync"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/sketch"
)

// Counter kinds, one per measured quantity (paper Fig. 2).
const (
	// CtrIn is total ingress bytes.
	CtrIn = iota
	// CtrInRetx is ingress bytes carrying the retransmit bit.
	CtrInRetx
	// CtrOut is total egress bytes.
	CtrOut
	// CtrOutRetx is egress bytes carrying the retransmit bit.
	CtrOutRetx
	// CtrInECN is ingress bytes carrying a CE mark.
	CtrInECN
	// NumCounters is the number of byte counters per bucket.
	NumCounters
)

// Config parameterizes a Millisampler run.
type Config struct {
	// Interval is the sampling bucket width. Production schedules runs at
	// 10 ms, 1 ms and 100 µs; all the paper's analyses use 1 ms.
	Interval sim.Time
	// Buckets is the number of time buckets; fixed at 2000 in production
	// regardless of interval, bounding memory and storage.
	Buckets int
	// CountFlows enables the per-bucket connection sketch. Disabling it
	// models the cheaper filter variant of the §4.3 microbenchmark.
	CountFlows bool
	// HostStack arms the host-stack latency tap (StackSampler) beside
	// Millisampler: the Controller runs both on the same grid and the SyncRun
	// carries the aligned latency series next to the byte series. Ignored by
	// the instruments themselves.
	HostStack bool
}

// DefaultConfig is the configuration behind every analysis in the paper:
// 1 ms sampling over 2000 buckets, a 2 s observation window.
func DefaultConfig() Config {
	return Config{Interval: sim.Millisecond, Buckets: 2000, CountFlows: true}
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = sim.Millisecond
	}
	if c.Buckets <= 0 {
		c.Buckets = 2000
	}
	return c
}

// Window returns the run's observation span (Interval × Buckets).
func (c Config) Window() sim.Time { return c.Interval * sim.Time(c.Buckets) }

// runWindow is the per-run lifecycle both host instruments share, Millisampler
// and the host-stack tap: arm, start on the first packet (or MarkStart),
// bucket by host-clock time, self-clear past the last bucket, and freeze as
// truncated when the host crashes. Keeping the rules in one place keeps the
// two series on one grid.
type runWindow struct {
	cfg  Config
	host *netsim.Host

	attached  bool
	enabled   bool
	started   bool
	startWall clock.WallTime

	// truncated records that the host crashed while a run was collecting;
	// truncWall is the host-clock instant of the crash. Data bucketed before
	// the crash survives (the user-space agent's last committed snapshot);
	// the tail of the window is lost.
	truncated bool
	truncWall clock.WallTime

	// DisabledCalls counts hook invocations on the disabled fast path, the
	// 7 ns case of the §4.3 microbenchmark.
	DisabledCalls uint64
}

// Config returns the instrument's configuration.
func (w *runWindow) Config() Config { return w.cfg }

// Attached reports whether the hook is installed.
func (w *runWindow) Attached() bool { return w.attached }

// Enabled reports whether the run is still collecting. It clears itself when
// a packet beyond the last bucket arrives.
func (w *runWindow) Enabled() bool { return w.enabled }

// attach installs f, the instrument embedding w, on both tc chains.
func (w *runWindow) attach(f netsim.Filter) {
	if w.attached {
		return
	}
	w.host.AttachIngress(f)
	w.host.AttachEgress(f)
	w.attached = true
}

// detach removes f from both chains, guaranteeing zero per-packet cost until
// the next run.
func (w *runWindow) detach(f netsim.Filter) {
	if !w.attached {
		return
	}
	w.host.DetachIngress(f)
	w.host.DetachEgress(f)
	w.attached = false
}

// arm starts a run: the first packet observed sets the time origin.
func (w *runWindow) arm() {
	w.started = false
	w.startWall = 0
	w.truncated = false
	w.truncWall = 0
	w.enabled = true
}

// MarkStart pins an armed run's time origin to the host's current wall
// clock, as if a packet had just been observed. The production tool is
// start-on-first-packet; the hybrid-fidelity driver pins the origin at the
// window open instead, because under fluid advancement the first real packet
// may arrive long into the window and would skew the run's timebase.
func (w *runWindow) MarkStart() {
	if !w.enabled || w.started {
		return
	}
	w.started = true
	w.startWall = w.host.Clock.Now(w.host.Engine().Now())
}

// bucket places a packet observed at host-clock time wall on the run's grid,
// starting the run if this is its first packet. It returns -1, clearing the
// enabled flag, for a packet beyond the last bucket: the completion signal to
// user space, after which packets take the cheap path until detach. Callers
// check enabled first; bucket must stay inlinable into both hot paths
// (scripts/check.sh).
func (w *runWindow) bucket(wall clock.WallTime) int {
	if !w.started {
		w.started = true
		w.startWall = wall
	}
	// A host clock stepped backwards across an NTP correction folds into the
	// first bucket rather than dropping the sample.
	b := int(max(int64(wall)-int64(w.startWall), 0) / int64(w.cfg.Interval))
	if b >= w.cfg.Buckets {
		w.enabled = false
		return -1
	}
	return b
}

// crash freezes an in-flight run at the crash instant. The host has already
// dropped its hooks (they do not survive a reboot); mirror that in the attach
// state so a later Attach reinstalls cleanly.
func (w *runWindow) crash() {
	w.attached = false
	if !w.enabled {
		return
	}
	w.enabled = false
	w.truncated = true
	if w.started {
		w.truncWall = w.host.Clock.Now(w.host.Engine().Now())
	}
}

// validBuckets is the number of complete buckets a truncated run collected
// before the crash; 0 for runs that were not truncated.
func (w *runWindow) validBuckets() int {
	if !w.truncated || !w.started {
		return 0
	}
	vb := int((int64(w.truncWall) - int64(w.startWall)) / int64(w.cfg.Interval))
	return min(max(vb, 0), w.cfg.Buckets)
}

// slab is one host's counter block: flat arrays so the hot path is a few adds
// with no pointer chasing, mirroring the eBPF array maps. Production keeps one
// per CPU so cores never contend on a counter; the single-threaded engine has
// no contention to avoid, so a host keeps the one block the copies sum into.
type slab struct {
	bytes    []uint64        // NumCounters × Buckets, kind-major
	sketches []sketch.Sketch // Buckets; nil when flows are not counted
}

// slabs recycles counter blocks between runs: a rack-hour takes one per host
// when its run is armed and returns it once the harvest has copied it out.
var slabs sync.Pool

// takeSlab returns a zeroed block shaped for cfg: a recycled one cleared, or
// a fresh one. A recycled block of another shape is dropped.
func takeSlab(cfg Config) *slab {
	if sl, ok := slabs.Get().(*slab); ok && len(sl.bytes) == NumCounters*cfg.Buckets && (sl.sketches != nil) == cfg.CountFlows {
		clear(sl.bytes)
		clear(sl.sketches)
		return sl
	}
	sl := &slab{bytes: make([]uint64, NumCounters*cfg.Buckets)}
	if cfg.CountFlows {
		sl.sketches = make([]sketch.Sketch, cfg.Buckets)
	}
	return sl
}

// Sampler is one host's Millisampler instance. Attach it to the host with
// Attach, arm a run with Enable, and harvest with Read once done.
type Sampler struct {
	runWindow
	// slab is nil until the first Enable, and again after a Controller's
	// harvest returns it to the pool.
	*slab
}

// NewSampler builds a sampler for host. It is not yet attached, and holds no
// counters until a run is armed. The sampler registers a crash hook: if the
// host crashes mid-run, the run is frozen as truncated at the crash instant
// and the filter is gone (tc programs do not survive a reboot).
func NewSampler(host *netsim.Host, cfg Config) *Sampler {
	s := &Sampler{runWindow: runWindow{cfg: cfg.withDefaults(), host: host}}
	host.OnCrash(s.crash)
	return s
}

// Attach installs the tc filter on both directions of the host packet path.
func (s *Sampler) Attach() { s.attach(s) }

// Detach removes the filter, guaranteeing zero per-packet cost until the
// next run.
func (s *Sampler) Detach() { s.detach(s) }

// Enable arms a run: counters reset, the first packet observed sets the time
// origin.
func (s *Sampler) Enable() {
	if s.slab == nil {
		s.slab = takeSlab(s.cfg)
	} else {
		clear(s.bytes)
		clear(s.sketches)
	}
	s.arm()
}

// release disarms the sampler and returns its counter block to the pool. The
// harvest must already have copied the block out: a later Read sees zeros.
func (s *Sampler) release() {
	s.enabled = false
	if s.slab != nil {
		slabs.Put(s.slab)
		s.slab = nil
	}
}

// Handle implements netsim.Filter — the in-kernel hot path. Every core counts
// into the host's one block.
func (s *Sampler) Handle(now sim.Time, _ int, dir netsim.Direction, seg *netsim.Segment) {
	if !s.enabled {
		s.DisabledCalls++
		return
	}
	bucket := s.bucket(s.host.Clock.Now(now))
	if bucket < 0 {
		return
	}
	size := uint64(seg.Size)
	if dir == netsim.Ingress {
		s.bytes[CtrIn*s.cfg.Buckets+bucket] += size
		if seg.Flags&netsim.FlagRetx != 0 {
			s.bytes[CtrInRetx*s.cfg.Buckets+bucket] += size
		}
		if seg.Flags&netsim.FlagCE != 0 {
			s.bytes[CtrInECN*s.cfg.Buckets+bucket] += size
		}
	} else {
		s.bytes[CtrOut*s.cfg.Buckets+bucket] += size
		if seg.Flags&netsim.FlagRetx != 0 {
			s.bytes[CtrOutRetx*s.cfg.Buckets+bucket] += size
		}
	}
	if s.sketches != nil {
		s.sketches[bucket].Insert(canonicalFlowHash(seg.Flow))
	}
}

// AccountBulk credits bytes of counter kind to one bucket without traversing
// the per-packet path — the fluid model's bulk-accounting entry point. The
// caller works on the bucket grid MarkStart pinned; out-of-range buckets are
// dropped exactly like packets beyond the window, and so is everything on a
// sampler holding no counters (never armed, or already harvested).
func (s *Sampler) AccountBulk(kind, bucket int, bytes uint64) {
	if s.slab == nil || kind < 0 || kind >= NumCounters || bucket < 0 || bucket >= s.cfg.Buckets {
		return
	}
	s.bytes[kind*s.cfg.Buckets+bucket] += bytes
}

// AccountConns inserts pre-hashed flows into one bucket's connection sketch,
// the fluid counterpart of the per-packet sketch insertion. Hashes must come
// from FlowHash so fluid and packet contributions of the same connection
// land on the same sketch bits.
func (s *Sampler) AccountConns(bucket int, hashes []uint64) {
	if s.slab == nil || s.sketches == nil || bucket < 0 || bucket >= s.cfg.Buckets {
		return
	}
	sk := &s.sketches[bucket]
	for _, h := range hashes {
		sk.Insert(h)
	}
}

// FlowHash returns the direction-canonical hash the connection sketch uses.
func FlowHash(f netsim.FlowKey) uint64 { return canonicalFlowHash(f) }

// canonicalFlowHash hashes a flow so both directions of a connection map to
// the same sketch bit: the sketch counts active connections regardless of
// direction (paper §4.2).
func canonicalFlowHash(f netsim.FlowKey) uint64 {
	if f.Src > f.Dst || (f.Src == f.Dst && f.SrcPort > f.DstPort) {
		f = f.Reverse()
	}
	return f.Hash()
}

// Read copies the counter block into a Run. It mirrors the fixed-cost
// bpf-map read of the production tool and is safe to call at any time; a
// complete harvest should follow Enabled() turning false or the expected run
// window elapsing.
func (s *Sampler) Read() *Run {
	n := s.cfg.Buckets
	r := &Run{
		Host:         s.host.ID,
		Interval:     s.cfg.Interval,
		Buckets:      n,
		Started:      s.started,
		StartWall:    s.startWall,
		LineRateBps:  s.host.LineRateBps(),
		Truncated:    s.truncated,
		ValidBuckets: s.validBuckets(),
	}
	// One backing array for the five series, each capped so an append
	// cannot spill into the next. A sampler holding no counters reads zeros.
	all := make([]uint64, NumCounters*n)
	for k := range r.Bytes {
		r.Bytes[k] = all[k*n : (k+1)*n : (k+1)*n]
	}
	if s.cfg.CountFlows {
		r.Conns = make([]float64, n)
	}
	if s.slab != nil {
		copy(all, s.bytes)
		for j := range s.sketches {
			r.Conns[j] = s.sketches[j].Estimate()
		}
	}
	if r.Truncated {
		// Drop the partially-filled crash bucket and anything after it.
		for k := range r.Bytes {
			clear(r.Bytes[k][r.ValidBuckets:])
		}
		if r.Conns != nil {
			clear(r.Conns[r.ValidBuckets:])
		}
	}
	return r
}

// MemoryFootprint returns the in-kernel byte footprint of the production
// per-CPU counter maps, one block per host core: the quantity reported in
// §4.3 (≈3.6 MB on a typical host). The simulated sampler keeps one block.
func (s *Sampler) MemoryFootprint() int {
	per := NumCounters * s.cfg.Buckets * 8
	if s.cfg.CountFlows {
		per += s.cfg.Buckets * sketch.Words * 8
	}
	return per * s.host.Cores
}
