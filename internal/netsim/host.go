package netsim

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/sim"
)

// Direction distinguishes the two tc hook points on the packet path.
type Direction int

const (
	// Ingress is traffic entering the host (paper's primary focus).
	Ingress Direction = iota
	// Egress is traffic leaving the host.
	Egress
)

func (d Direction) String() string {
	if d == Ingress {
		return "ingress"
	}
	return "egress"
}

// Filter is a tc-style packet hook. Handle runs on the simulated CPU core
// that processes the segment (the soft-irq bottom half on ingress), which is
// how Millisampler's per-CPU counters get exercised. Filters must not retain
// seg beyond the call: the switch may pool or replicate segments.
type Filter interface {
	Handle(now sim.Time, core int, dir Direction, seg *Segment)
}

// ProtocolHandler receives segments after the ingress filter chain, playing
// the role of the kernel TCP stack. The transport package installs one.
type ProtocolHandler func(seg *Segment)

// StackTap observes host-stack latency at the instrumentation points of the
// packet path, netstacklat-style. On ingress it fires at socket delivery
// (after the stall and GRO models, on the RSS-selected soft-irq core) with
// span = time the segment spent inside the host since NIC arrival; on egress
// it fires at Send with span = the NIC's committed serialization backlog.
// Like Filters, a tap must not retain seg beyond the call and must not
// mutate simulation state: it is pure bookkeeping, so enabling it never
// perturbs the event schedule.
type StackTap interface {
	Observe(now sim.Time, core int, dir Direction, seg *Segment, span sim.Time)
}

// Forwarder is the host's next hop for egress traffic (its ToR uplink path).
// Send calls Forward as soon as the NIC has committed the segment, with the
// instant at which its last bit reaches the far end of the host link; the
// forwarder schedules on eng whatever happens at or after that instant. The
// NIC hop therefore costs no event of its own: a topology adds its delay to
// at and schedules the arrival directly (testbed.Rack).
type Forwarder interface {
	Forward(eng *sim.Engine, at sim.Time, seg *Segment)
}

// ForwarderFunc adapts a function that wants the segment at wire time — a
// bare host in a test or a probe — to the Forwarder interface.
type ForwarderFunc func(seg *Segment)

// Forward implements Forwarder by spending one event at at.
func (f ForwarderFunc) Forward(eng *sim.Engine, at sim.Time, seg *Segment) {
	eng.AtCall(at, linkDeliver, seg, Deliver(f), 0)
}

// Host is a simulated server: a NIC, a set of CPU cores with RSS dispatch,
// attach points for tc filters on both directions, and a protocol handler.
type Host struct {
	ID    HostID
	Clock *clock.Host
	Cores int

	eng     *sim.Engine
	pool    *SegmentPool
	nic     *Link // egress serialization at the host's allocated rate
	out     Forwarder
	ingress []Filter
	egress  []Filter
	handler ProtocolHandler
	gro     *groState
	tap     StackTap

	// RxBytes and TxBytes count all traffic through the host, filters aside.
	RxBytes int64
	TxBytes int64

	// stalledUntil, when in the future, models a kernel soft-irq stall
	// (paper §4.6: locking bugs that prevent any handling of network
	// interrupts). Arriving segments are held and processed together when
	// the stall ends, which is what makes such stalls visible as apparent
	// bursts in Millisampler data.
	stalledUntil sim.Time
	stalled      []*Segment

	// NICDropRate, when positive, randomly discards that fraction of
	// arriving segments before the host sees them — the NIC firmware bug
	// diagnostic scenario of §4.2 (loss with low utilization).
	NICDropRate float64
	nicRNG      *sim.RNG
	NICDrops    int64

	// Crash/reboot fault model. A crashed host is dark: segments in either
	// direction are dropped, soft-irq state (including stalled segments) is
	// lost, and the tc filter chains are cleared — a reboot does not restore
	// filters, mirroring production where attached programs do not survive
	// the kernel. The fleet the paper measured (~92k servers per region)
	// always has some hosts in this state during a collection day.
	downUntil  sim.Time
	isDown     bool
	Boots      int   // completed reboots
	CrashDrops int64 // segments dropped while the host was down
	crashHooks []func()
}

// HostConfig parameterizes a Host.
type HostConfig struct {
	ID HostID
	// Cores is the number of simulated CPU cores handling soft-irqs.
	Cores int
	// LinkRateBps is the host's allocated NIC rate (12.5 Gbps for the server
	// class the paper studies: a 50 Gbps NIC shared across 4 servers).
	LinkRateBps int64
	// PropDelay is the one-way server-to-ToR propagation delay.
	PropDelay sim.Time
	Clock     *clock.Host
	// Pool is the segment pool shared along this host's packet path. Leave
	// nil for a private pool; topologies (testbed.Rack) share one pool per
	// engine so segments recycle across the whole path.
	Pool *SegmentPool
}

// DefaultServerRateBps is the per-server allocated line rate (12.5 Gbps).
const DefaultServerRateBps int64 = 12_500_000_000

// NewHost builds a host on the engine. The forwarder (uplink path) is set
// later by the topology with SetForwarder.
func NewHost(eng *sim.Engine, cfg HostConfig) *Host {
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	if cfg.LinkRateBps == 0 {
		cfg.LinkRateBps = DefaultServerRateBps
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewHost(clock.PerfectSyncModel(), sim.NewRNG(uint64(cfg.ID)))
	}
	if cfg.Pool == nil {
		cfg.Pool = NewSegmentPool()
	}
	h := &Host{
		ID:    cfg.ID,
		Clock: cfg.Clock,
		Cores: cfg.Cores,
		eng:   eng,
		pool:  cfg.Pool,
		nic:   NewLink(eng, cfg.LinkRateBps, cfg.PropDelay),
	}
	h.nic.SetPool(cfg.Pool)
	return h
}

// Engine returns the host's simulation engine.
func (h *Host) Engine() *sim.Engine { return h.eng }

// LineRateBps returns the host's allocated NIC rate.
func (h *Host) LineRateBps() int64 { return h.nic.RateBps }

// Pool returns the host's segment pool; the transport stack draws its
// outgoing segments from it.
func (h *Host) Pool() *SegmentPool { return h.pool }

// SetForwarder wires the host's egress path.
func (h *Host) SetForwarder(f Forwarder) { h.out = f }

// SetProtocolHandler installs the transport-layer receive entry point.
func (h *Host) SetProtocolHandler(p ProtocolHandler) { h.handler = p }

// SetStackTap installs (or, with nil, removes) the host-stack latency tap.
// A host has at most one tap; like the tc chains it does not survive a
// crash.
func (h *Host) SetStackTap(t StackTap) { h.tap = t }

// StackTapInstalled reports whether a latency tap is attached.
func (h *Host) StackTapInstalled() bool { return h.tap != nil }

// AttachIngress appends f to the ingress tc chain.
func (h *Host) AttachIngress(f Filter) { h.ingress = append(h.ingress, f) }

// AttachEgress appends f to the egress tc chain.
func (h *Host) AttachEgress(f Filter) { h.egress = append(h.egress, f) }

// DetachIngress removes f from the ingress chain. Detaching the filter is how
// Millisampler guarantees zero CPU cost between runs. Filters passed to the
// detach methods must be comparable (use pointer receivers).
func (h *Host) DetachIngress(f Filter) { h.ingress = removeFilter(h.ingress, f) }

// DetachEgress removes f from the egress chain.
func (h *Host) DetachEgress(f Filter) { h.egress = removeFilter(h.egress, f) }

func removeFilter(fs []Filter, f Filter) []Filter {
	out := fs[:0]
	for _, g := range fs {
		if g != f {
			out = append(out, g)
		}
	}
	// Clear the tail so detached filters are not retained.
	for i := len(out); i < len(fs); i++ {
		fs[i] = nil
	}
	return out
}

// rssCore maps a segment to the CPU core that processes it, mirroring
// receive-side scaling: a hash of the flow tuple.
func (h *Host) rssCore(seg *Segment) int {
	return int(seg.Flow.Hash() % uint64(h.Cores))
}

// Crash takes the host down for downtime: in-flight and stalled segments are
// dropped, the tc filter chains are lost, and registered crash hooks fire so
// attached instrumentation (e.g. a Millisampler run) can record the
// interruption. Crashing an already-down host only extends the outage.
func (h *Host) Crash(downtime sim.Time) {
	until := h.eng.Now() + downtime
	if h.isDown {
		if until > h.downUntil {
			h.downUntil = until
			h.eng.At(until, h.reboot)
		}
		return
	}
	h.isDown = true
	h.downUntil = until
	// Soft-irq state and filter chains do not survive the crash. Segments
	// held by the stall and GRO models are dropped, which for pooled
	// segments means recycled: the crash terminates their path.
	h.CrashDrops += int64(len(h.stalled))
	for i, seg := range h.stalled {
		h.pool.Put(seg)
		h.stalled[i] = nil
	}
	h.stalled = nil
	h.stalledUntil = 0
	h.ingress = nil
	h.egress = nil
	h.tap = nil
	if h.gro != nil {
		h.gro.dropAll()
		h.gro = nil
	}
	for _, fn := range h.crashHooks {
		fn()
	}
	h.eng.At(until, h.reboot)
}

func (h *Host) reboot() {
	if !h.isDown || h.eng.Now() < h.downUntil {
		return // superseded by a longer outage
	}
	h.isDown = false
	h.Boots++
}

// Down reports whether the host is currently crashed.
func (h *Host) Down() bool { return h.isDown }

// OnCrash registers fn to run at the instant the host crashes. Hooks fire
// after the host's soft-irq and filter state has been discarded.
func (h *Host) OnCrash(fn func()) { h.crashHooks = append(h.crashHooks, fn) }

// Inject delivers a segment arriving from the wire: NIC fault model, stall
// model, GRO (if enabled), the ingress filter chain on the RSS-selected
// core, then the protocol handler.
func (h *Host) Inject(seg *Segment) {
	checkLive(seg, "Host.Inject")
	if h.isDown {
		h.CrashDrops++
		h.pool.Put(seg)
		return
	}
	if h.NICDropRate > 0 {
		if h.nicRNG == nil {
			h.nicRNG = sim.NewRNG(uint64(h.ID) + 0xD40B)
		}
		if h.nicRNG.Bool(h.NICDropRate) {
			h.NICDrops++
			h.pool.Put(seg)
			return
		}
	}
	if seg.StackArrival == 0 {
		// First entry into this host; flushStall re-injects held segments and
		// must keep their original NIC arrival.
		seg.StackArrival = h.eng.Now()
	}
	if h.eng.Now() < h.stalledUntil {
		h.stalled = append(h.stalled, seg)
		return
	}
	h.RxBytes += int64(seg.Size)
	if h.gro != nil {
		h.gro.offer(seg)
		return
	}
	h.deliver(seg)
}

// Stall freezes soft-irq processing for d: segments arriving meanwhile are
// neither counted nor delivered until the stall ends, then all are processed
// back to back — reproducing the "no data although the NIC is receiving,
// then an apparent burst" artifact of §4.6.
func (h *Host) Stall(d sim.Time) {
	until := h.eng.Now() + d
	if until <= h.stalledUntil {
		return
	}
	h.stalledUntil = until
	h.eng.At(until, h.flushStall)
}

func (h *Host) flushStall() {
	if h.eng.Now() < h.stalledUntil {
		return // superseded by a longer stall
	}
	pending := h.stalled
	h.stalled = nil
	for _, seg := range pending {
		h.Inject(seg)
	}
}

// deliver terminates a segment's path: ingress filters, the protocol
// handler, then release back to the pool. Filters and the handler must not
// retain the segment past their call.
func (h *Host) deliver(seg *Segment) {
	// Only filters and the tap consume the RSS core; remotes have neither,
	// so the flow hash is computed only when someone looks.
	if len(h.ingress) > 0 || h.tap != nil {
		now := h.eng.Now()
		core := h.rssCore(seg)
		for _, f := range h.ingress {
			f.Handle(now, core, Ingress, seg)
		}
		if h.tap != nil {
			span := sim.Time(0)
			if seg.StackArrival > 0 && now > seg.StackArrival {
				span = now - seg.StackArrival
			}
			h.tap.Observe(now, core, Ingress, seg, span)
		}
	}
	if h.handler != nil {
		h.handler(seg)
	}
	h.pool.Put(seg)
}

// Send transmits a segment: egress filter chain, then NIC serialization, then
// the topology forwarder — handed the segment now, with its wire time, so
// the whole egress costs no event before the forwarder's own.
func (h *Host) Send(seg *Segment) {
	if h.out == nil {
		panic(fmt.Sprintf("netsim: host %d has no forwarder", h.ID))
	}
	checkLive(seg, "Host.Send")
	if h.isDown {
		h.CrashDrops++
		h.pool.Put(seg)
		return
	}
	h.TxBytes += int64(seg.Size)
	if len(h.egress) > 0 || h.tap != nil {
		now := h.eng.Now()
		core := h.rssCore(seg)
		for _, f := range h.egress {
			f.Handle(now, core, Egress, seg)
		}
		if h.tap != nil {
			h.tap.Observe(now, core, Egress, seg, h.nic.Backlog())
		}
	}
	if at, ok := h.nic.Transmit(seg); ok {
		h.out.Forward(h.eng, at, seg)
	}
}

// NIC exposes the host's egress link, e.g. for fault injection in tests.
func (h *Host) NIC() *Link { return h.nic }
