// Package testbed assembles complete simulated rack topologies: servers
// behind a shared-buffer ToR, fabric-side remote hosts, transport endpoints,
// and synchronized host clocks. It is the substrate every experiment,
// example, and fleet run builds on.
package testbed

import (
	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/transport"
)

// The rack's fixed physical constants. Every host has netsim's default four
// cores (Millisampler's per-CPU dimension), and every server the studied
// class's 12.5 Gbps allocated link rate.
const (
	// remoteRateBps is each remote host's NIC rate.
	remoteRateBps int64 = 25_000_000_000
	// FabricDelay is the one-way delay across the fabric between the ToR and
	// a remote host.
	FabricDelay = 10 * sim.Microsecond
)

// RackConfig parameterizes one rack testbed.
type RackConfig struct {
	// Servers is the number of rack servers (each with its own ToR queue).
	Servers int
	// Remotes is the pool of fabric-side hosts available as traffic peers.
	Remotes int
	// Switch optionally overrides the ToR configuration; zero fields take
	// the production defaults for the rack's server count.
	Switch switchsim.Config
	// ClockModel is the host time-synchronization quality (default: the
	// paper's sub-millisecond NTP deployment).
	ClockModel clock.SyncModel
	// ControlFailProb is the per-RPC probability that the collection control
	// plane loses a request or response. Zero is reliable.
	ControlFailProb float64
	// Seed drives all randomness in the rack.
	Seed uint64
}

func (c RackConfig) withDefaults() RackConfig {
	if c.Servers <= 0 {
		c.Servers = 16
	}
	if c.Remotes <= 0 {
		c.Remotes = 4 * c.Servers
	}
	if c.ClockModel == (clock.SyncModel{}) {
		c.ClockModel = clock.DefaultSyncModel()
	}
	return c
}

// RemoteIDBase offsets remote host IDs so they never collide with server
// indices.
const RemoteIDBase netsim.HostID = 1 << 16

// Rack is an assembled topology.
type Rack struct {
	Eng     *sim.Engine
	RNG     *sim.RNG
	Switch  *switchsim.Switch
	Control *ControlPlane

	Servers   []*netsim.Host
	ServerEPs []*transport.Endpoint
	Remotes   []*netsim.Host
	RemoteEPs []*transport.Endpoint

	// UnroutableDrops counts segments addressed to hosts outside the
	// topology. The fabric drops them like any real network would; a
	// nonzero count usually indicates a misconfigured workload.
	UnroutableDrops int64
}

// NewRack builds a rack testbed.
func NewRack(cfg RackConfig) *Rack {
	cfg = cfg.withDefaults()
	eng := sim.NewEngine()
	rng := sim.NewRNG(cfg.Seed)

	swCfg := cfg.Switch
	if swCfg.Ports == 0 {
		swCfg = switchsim.DefaultConfig(cfg.Servers)
	}
	// One segment pool serves the whole rack: transports draw from it, and
	// wherever a segment's path ends (delivery, drop, replication) it
	// recycles back, so the steady-state working set stays resident.
	pool := swCfg.Pool
	if pool == nil {
		pool = netsim.NewSegmentPool()
		swCfg.Pool = pool
	}
	sw := switchsim.New(eng, swCfg)

	r := &Rack{
		Eng:    eng,
		RNG:    rng,
		Switch: sw,
		// The control RNG is seeded independently (not forked from the rack
		// stream) so enabling control-plane faults never perturbs workload
		// or clock randomness.
		Control: NewControlPlane(eng, cfg.ControlFailProb, sim.NewRNG(cfg.Seed^0xC7A1D40B)),
	}

	clockRNG := rng.Fork(0xC10C)
	for i := 0; i < cfg.Servers; i++ {
		hc := clock.NewHost(cfg.ClockModel, clockRNG)
		hc.StartDaemon(eng, cfg.ClockModel, clockRNG)
		h := netsim.NewHost(eng, netsim.HostConfig{
			ID:    netsim.HostID(i),
			Clock: hc,
			Pool:  pool,
		})
		h.SetForwarder(egress{r: r})
		sw.ConnectPort(i, h.Inject)
		r.Servers = append(r.Servers, h)
		r.ServerEPs = append(r.ServerEPs, transport.NewEndpoint(h))
	}
	for i := 0; i < cfg.Remotes; i++ {
		h := netsim.NewHost(eng, netsim.HostConfig{
			ID:          RemoteIDBase + netsim.HostID(i),
			LinkRateBps: remoteRateBps,
			Pool:        pool,
		})
		h.SetForwarder(egress{r: r, toToR: FabricDelay})
		r.Remotes = append(r.Remotes, h)
		r.RemoteEPs = append(r.RemoteEPs, transport.NewEndpoint(h))
	}
	return r
}

// Port returns the ToR downlink port of a rack server: server IDs are
// 0..Servers-1 by construction, so the ID is the port.
func (r *Rack) Port(id netsim.HostID) (int, bool) {
	return int(id), id >= 0 && int(id) < len(r.Servers)
}

// Pool returns the rack-wide segment pool.
func (r *Rack) Pool() *netsim.SegmentPool { return r.Switch.Pool() }

// egress is a host's path into the rack: toToR is the fabric delay between
// the host's NIC and the ToR — zero for a rack server, FabricDelay for a
// remote. The fabric is modeled uncongested and stateless: the paper
// observes that most congestion in this fleet occurs on the server-link, and
// ECN is operational only on the ToR (§3). Nothing can therefore happen to a
// segment between its sender's NIC and its next stateful hop, so Forward —
// called at Send time with the NIC's wire time — schedules that hop's
// arrival directly: one event per hop (DESIGN.md, "Packet path").
type egress struct {
	r     *Rack
	toToR sim.Time
}

// Forward implements netsim.Forwarder. Multicast and traffic to a rack
// server enter the ToR (where contention happens; a server's own rack-local
// traffic hairpins there); traffic to a remote crosses the fabric once more.
func (e egress) Forward(eng *sim.Engine, at sim.Time, seg *netsim.Segment) {
	r := e.r
	at += e.toToR
	dst := seg.Flow.Dst
	if seg.Is(netsim.FlagMulticast) {
		eng.AtCall(at, fabricToSwitch, r, seg, 0)
	} else if port, ok := r.Port(dst); ok {
		eng.AtCall(at, fabricToSwitch, r, seg, int64(port))
	} else if idx := int(dst - RemoteIDBase); idx >= 0 && idx < len(r.Remotes) {
		eng.AtCall(at+FabricDelay, hostInject, r.Remotes[idx], seg, 0)
	} else {
		// Addressed outside the topology; the drop terminates the
		// segment's path, so it recycles.
		r.UnroutableDrops++
		r.Pool().Put(seg)
	}
}

// hostInject and fabricToSwitch are the pooled-event continuations of the
// two arrivals: scheduling them allocates nothing, unlike a per-segment
// closure.
func hostInject(a1, a2 any, _ int64) { a1.(*netsim.Host).Inject(a2.(*netsim.Segment)) }

func fabricToSwitch(a1, a2 any, port int64) {
	a1.(*Rack).Switch.ForwardFromFabric(int(port), a2.(*netsim.Segment))
}
