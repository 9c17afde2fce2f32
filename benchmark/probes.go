package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/fluid"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/testbed"
	"repro/internal/transport"
	"repro/internal/workload"
)

// perLayer declares the metrics of the traced pass. Each is a fixed amount of
// work pushed through one layer's public functions and timed from outside;
// Moves names the end-to-end metric it is expected to move. Exact metrics are
// counts made by the program that repeat exactly from run to run.
var perLayer = []metricDef{
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "higher", Moves: "none: traced over untraced ops_per_s of this workload; the end-to-end metrics never come from traced blocks"},
	{Name: "machine_speed", Unit: "ratio", Better: "higher", Moves: "none: the calibration kernel's nominal time over its time during this pass; the probe timings are as the clock read them, so compare them at equal speed or over alternating pairs"},

	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher", Moves: "gen-full/ops_per_s"},
	{Name: "sim.timer_reset_ns", Unit: "ns", Better: "lower", Moves: "gen-full/ops_per_s"},
	{Name: "sim.events_per_rackhour", Unit: "count", Better: "lower", Exact: true, Moves: "gen-full/cpu_ms_per_op"},
	{Name: "sim.ns_per_event_in_rack", Unit: "ns", Better: "lower", Moves: "gen-full/cpu_ms_per_op; none on serve-mixed"},

	{Name: "netsim.inject_deliver_ns", Unit: "ns", Better: "lower", Moves: "gen-full/cpu_ms_per_op"},
	{Name: "netsim.link_send_ns", Unit: "ns", Better: "lower", Moves: "gen-full/cpu_ms_per_op"},
	{Name: "netsim.pool_allocs_per_seg", Unit: "count", Better: "lower", Moves: "gen-full/cpu_ms_per_op (expect 0)"},

	{Name: "switchsim.forward_ns.dt", Unit: "ns", Better: "lower", Moves: "gen-full/ops_per_s"},
	{Name: "switchsim.forward_ns.static", Unit: "ns", Better: "lower", Moves: "sweep-zoo/ops_per_s only"},
	{Name: "switchsim.forward_ns.complete", Unit: "ns", Better: "lower", Moves: "sweep-zoo/ops_per_s only"},
	{Name: "switchsim.forward_ns.bshare", Unit: "ns", Better: "lower", Moves: "sweep-zoo/ops_per_s only"},
	{Name: "switchsim.forward_ns.abm", Unit: "ns", Better: "lower", Moves: "sweep-zoo/ops_per_s only"},
	{Name: "switchsim.drop_ratio.dt", Unit: "ratio", Better: "lower", Exact: true, Moves: "none: a change here is a behaviour change, and the digests move with it"},
	{Name: "switchsim.drop_ratio.static", Unit: "ratio", Better: "lower", Exact: true, Moves: "none: behaviour"},
	{Name: "switchsim.drop_ratio.complete", Unit: "ratio", Better: "lower", Exact: true, Moves: "none: behaviour"},
	{Name: "switchsim.drop_ratio.bshare", Unit: "ratio", Better: "lower", Exact: true, Moves: "none: behaviour"},
	{Name: "switchsim.drop_ratio.abm", Unit: "ratio", Better: "lower", Exact: true, Moves: "none: behaviour"},
	{Name: "switchsim.allocs_per_seg", Unit: "count", Better: "lower", Moves: "gen-full/cpu_ms_per_op (expect 0)"},

	{Name: "transport.segs_per_s", Unit: "1/s", Better: "higher", Moves: "gen-full/ops_per_s"},
	{Name: "transport.retx_ratio", Unit: "ratio", Better: "lower", Exact: true, Moves: "none: behaviour"},
	{Name: "transport.connect_ns", Unit: "ns", Better: "lower", Moves: "gen-full/ops_per_s"},

	{Name: "core.sampler_handle_ns", Unit: "ns", Better: "lower", Moves: "gen-full/cpu_ms_per_op (paper: 88 ns)"},
	{Name: "core.sampler_handle_noflows_ns", Unit: "ns", Better: "lower", Moves: "gen-full/cpu_ms_per_op (paper: 84 ns)"},
	{Name: "core.sampler_read_us", Unit: "us", Better: "lower", Moves: "gen-full/cpu_ms_per_op"},
	{Name: "core.account_bulk_ns", Unit: "ns", Better: "lower", Moves: "gen-hybrid/cpu_ms_per_op"},

	{Name: "testbed.rack_build_ms", Unit: "ms", Better: "lower", Moves: "gen-hybrid/call_p50_ms (a fixed cost per rack-hour; a small share of gen-full)"},

	{Name: "fluid.rackhour_ms", Unit: "ms", Better: "lower", Moves: "gen-hybrid/ops_per_s"},
	{Name: "fluid.detect_us", Unit: "us", Better: "lower", Moves: "gen-hybrid/ops_per_s"},
	{Name: "fluid.packet_burst_share", Unit: "ratio", Better: "lower", Exact: true, Moves: "gen-hybrid/ops_per_s: a rise explains a slowdown with no fluid code change"},
	{Name: "fluid.episodes_per_rackhour", Unit: "count", Better: "lower", Exact: true, Moves: "gen-hybrid/ops_per_s"},

	{Name: "fleet.rackhour_full_ms", Unit: "ms", Better: "lower", Moves: "gen-full/ops_per_s"},
	{Name: "fleet.rackhour_hybrid_ms", Unit: "ms", Better: "lower", Moves: "gen-hybrid/ops_per_s"},
	{Name: "fleet.hybrid_speedup", Unit: "ratio", Better: "higher", Moves: "gen-hybrid/ops_per_s over gen-full/ops_per_s (base: full; on the probes' two racks per region, where the whole preset gives about half)"},
	{Name: "fleet.scaling_w2", Unit: "ratio", Better: "higher", Moves: "none: the workloads run one worker"},
	{Name: "analysis.analyze_ms", Unit: "ms", Better: "lower", Moves: "gen-full/ops_per_s, gen-hybrid/ops_per_s"},
	{Name: "hoststack.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "none: the workloads run with the instrument off (base: off)"},

	{Name: "dataset.shard_write_ms", Unit: "ms", Better: "lower", Moves: "gen-hybrid/ops_per_s"},
	{Name: "dataset.write_share", Unit: "ratio", Better: "lower", Moves: "gen-hybrid/ops_per_s"},
	{Name: "dataset.encode_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "gen-hybrid/ops_per_s"},
	{Name: "dataset.verify_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "none yet: only distributed installs verify"},
	{Name: "dataset.bytes_per_rackhour", Unit: "B", Better: "lower", Exact: true, Moves: "gen-hybrid/bytes_per_op"},
	{Name: "dataset.decode_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "serve-mixed/call_p90_ms"},
	{Name: "dataset.open_ms", Unit: "ms", Better: "lower", Moves: "serve-mixed/call_p90_ms"},

	{Name: "sweep.point_ms.dt", Unit: "ms", Better: "lower", Moves: "sweep-zoo/ops_per_s"},
	{Name: "sweep.point_ms.static", Unit: "ms", Better: "lower", Moves: "sweep-zoo/ops_per_s"},
	{Name: "sweep.point_ms.complete", Unit: "ms", Better: "lower", Moves: "sweep-zoo/ops_per_s"},
	{Name: "sweep.point_ms.bshare", Unit: "ms", Better: "lower", Moves: "sweep-zoo/ops_per_s, call_p90_ms"},
	{Name: "sweep.point_ms.abm", Unit: "ms", Better: "lower", Moves: "sweep-zoo/ops_per_s, call_p90_ms"},
	{Name: "sweep.commit_point_ms", Unit: "ms", Better: "lower", Moves: "sweep-zoo/ops_per_s"},
	{Name: "sweep.store_share", Unit: "ratio", Better: "lower", Moves: "sweep-zoo/ops_per_s"},
	{Name: "sweep.open_report_ms", Unit: "ms", Better: "lower", Moves: "serve-mixed/call_p90_ms (cold sweep renders)"},

	{Name: "distrib.lease_complete_rtt_us", Unit: "us", Better: "lower", Moves: "none yet: no workload runs distrib"},
	{Name: "distrib.install_shard_us", Unit: "us", Better: "lower", Moves: "none yet"},
	{Name: "distrib.unit_overhead_ms", Unit: "ms", Better: "lower", Moves: "none yet"},
	{Name: "distrib.duplicates", Unit: "count", Better: "lower", Exact: true, Moves: "none yet (expect 0)"},
	{Name: "distrib.requeues", Unit: "count", Better: "lower", Exact: true, Moves: "none yet (expect 0)"},

	{Name: "queryd.render_warm_us", Unit: "us", Better: "lower", Moves: "serve-mixed/call_p50_ms"},
	{Name: "queryd.render_304_us", Unit: "us", Better: "lower", Moves: "serve-mixed/call_p50_ms"},
	{Name: "queryd.render_cold_ms", Unit: "ms", Better: "lower", Moves: "serve-mixed/call_p90_ms, ops_per_s"},
	{Name: "queryd.sweep_render_cold_ms", Unit: "ms", Better: "lower", Moves: "serve-mixed/call_p90_ms"},
	{Name: "queryd.stream_rack_ms", Unit: "ms", Better: "lower", Moves: "serve-mixed/call_p50_ms, ops_per_s"},
	{Name: "queryd.stream_full_ms", Unit: "ms", Better: "lower", Moves: "serve-mixed/call_p90_ms, ops_per_s"},
	{Name: "queryd.stream_runs_per_s", Unit: "1/s", Better: "higher", Moves: "serve-mixed/ops_per_s"},
	{Name: "queryd.catalog_ms", Unit: "ms", Better: "lower", Moves: "none: the mix does not list the catalog"},
	{Name: "queryd.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "serve-mixed/call_p50_ms (0.5 by construction: revalidations never reach the cache)"},
	{Name: "queryd.renders_built", Unit: "count", Better: "lower", Moves: "serve-mixed/call_p90_ms"},
	{Name: "queryd.throttled", Unit: "count", Better: "lower", Exact: true, Moves: "serve-mixed failed ops (expect 0)"},
	{Name: "experiments.run_ms", Unit: "ms", Better: "lower", Moves: "serve-mixed/call_p90_ms (a cold render less this is queryd's own cost)"},
}

// probes runs the fixed-work layer probes. Every timing is as the clock read
// it, the median of a few rounds; the machine's speed is sampled between the
// probes and reported beside them.
type probes struct {
	tr    *Tracer
	cal   []float64 // calibration samples taken between the probes
	seed  uint64
	scale int // work divisor: 1, or 20 under -short
	work  string
	out   map[string]metric
}

// rounds is how often a probe of a single layer repeats its timing, and
// pipeRounds how often one of the slower whole-pipeline probes does.
func (p *probes) rounds() int {
	if p.scale > 1 {
		return 1
	}
	return 3
}

func (p *probes) pipeRounds() int {
	if p.scale > 1 {
		return 1
	}
	return 2
}

func (p *probes) set(name string, v float64) { setLayer(p.out, name, v) }

// setLayer records a per-layer metric under its declared unit.
func setLayer(out map[string]metric, name string, v float64) {
	for _, d := range perLayer {
		if d.Name == name {
			out[name] = metric{v, d.Unit}
			return
		}
	}
	panic("benchmark: undeclared per-layer metric " + name)
}

// n scales a work size.
func (p *probes) n(full int) int {
	if k := full / p.scale; k > 1 {
		return k
	}
	return 1
}

// typical returns the median over the rounds of the duration (in seconds) fn
// reports.
func typical(rounds int, fn func() float64) float64 {
	ds := make([]float64, rounds)
	for i := range ds {
		ds[i] = fn()
	}
	return Median(ds)
}

// mallocs counts heap allocations made by fn.
func mallocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// run executes every probe, each inside a span of its own.
func (p *probes) run() error {
	steps := []struct {
		name string
		fn   func() error
	}{
		{"probe.sim", p.sim}, {"probe.netsim", p.netsim}, {"probe.switchsim", p.switchsim},
		{"probe.transport", p.transport}, {"probe.core", p.core}, {"probe.testbed", p.testbed},
		{"probe.fluid", p.fluid}, {"probe.fleet", p.fleet}, {"probe.sweep", p.sweep},
		{"probe.distrib", p.distrib}, {"probe.queryd", p.queryd},
	}
	for _, s := range steps {
		runtime.GC()
		p.cal = append(p.cal, calibrate(), calibrate())
		t0 := time.Now()
		if err := p.tr.Do(s.name, -1, s.fn); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Printf("  %-16s took %5.2f s\n", s.name, since(t0))
	}
	return nil
}

func nop(a1, a2 any, i int64) {}

// sim: the event heap at a depth of about a thousand, as a busy rack holds
// it, and one whole rack-hour for the event count and the cost per event
// with every layer's callbacks attached.
func (p *probes) sim() error {
	const depth = 1024
	n := p.n(500_000)
	rng := sim.NewRNG(p.seed)
	delays := make([]sim.Time, 4096)
	for i := range delays {
		delays[i] = sim.Time(1 + rng.Int63n(int64(sim.Millisecond)))
	}
	fire := typical(p.rounds(), func() float64 {
		eng := sim.NewEngine()
		for i := 0; i < depth; i++ {
			eng.AfterCall(delays[i], nop, nil, nil, 0)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			eng.AfterCall(delays[i&4095], nop, nil, nil, 0)
			eng.Step()
		}
		return since(t0)
	})
	p.set("sim.events_per_s", float64(n)/fire)
	reset := typical(p.rounds(), func() float64 {
		eng := sim.NewEngine()
		timers := make([]*sim.Timer, depth)
		for i := range timers {
			timers[i] = eng.NewTimer(func() {})
			timers[i].Reset(delays[i])
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			timers[i&(depth-1)].Reset(delays[i&4095])
		}
		return since(t0)
	})
	p.set("sim.timer_reset_ns", reset/float64(n)*1e9)

	var fired uint64
	rackhour := typical(p.rounds(), func() float64 {
		t0 := time.Now()
		eng, _, err := packetRackHour(p.rackBuckets())
		if err != nil {
			panic(err)
		}
		fired = eng.Fired()
		return since(t0)
	})
	p.set("sim.events_per_rackhour", float64(fired))
	p.set("sim.ns_per_event_in_rack", rackhour/float64(fired)*1e9)
	return nil
}

// rackBuckets is the sampling window of the probes' rack-hours.
func (p *probes) rackBuckets() int {
	if p.scale > 1 {
		return 50
	}
	return 400
}

// probeRack returns the first rack of the small preset with its busy-hour
// profiles: what fleet simulates for one rack-hour.
func probeRack(buckets int) (fleet.Config, fleet.RackSpec, testbed.RackConfig, []workload.Profile) {
	cfg := genConfig("full", 5).WithDefaults()
	cfg.Buckets = buckets
	spec := fleet.BuildRacks(cfg)[0]
	hour := fleet.BusyHour
	rcfg := testbed.RackConfig{
		Servers: cfg.ServersPerRack,
		Remotes: 4 * cfg.ServersPerRack,
		Seed:    spec.Seed ^ (uint64(hour+1) * 0x9e3779b97f4a7c15),
	}
	scale := fleet.DiurnalFactor(hour) * spec.Intensity
	profiles := make([]workload.Profile, len(spec.Profiles))
	for i, pr := range spec.Profiles {
		profiles[i] = pr.Scale(scale)
	}
	return cfg, spec, rcfg, profiles
}

// packetRackHour assembles and runs one rack-hour on the packet engine from
// the layers' public constructors, the way fleet does.
func packetRackHour(buckets int) (*sim.Engine, *core.SyncRun, error) {
	const warmup = 150 * sim.Millisecond
	cfg, _, rcfg, profiles := probeRack(buckets)
	rack := testbed.NewRack(rcfg)
	if _, err := workload.InstallRack(rack, profiles, rack.RNG.Fork(0x10AD)); err != nil {
		return nil, nil, err
	}
	ctrl := core.NewController(rack, core.Config{Interval: cfg.Interval, Buckets: cfg.Buckets, CountFlows: true})
	if err := ctrl.Schedule(warmup); err != nil {
		return nil, nil, err
	}
	rack.Eng.RunUntil(ctrl.HarvestAt(warmup) + sim.Millisecond)
	if !ctrl.Done() {
		rack.Eng.RunUntil(ctrl.HarvestDeadline(warmup) + sim.Millisecond)
	}
	sr, err := ctrl.Result()
	return rack.Eng, sr, err
}

// probeSegment takes a full-size data segment from the pool: the i-th of
// sender src's flow to dst.
func probeSegment(pool *netsim.SegmentPool, src, i int, dst netsim.HostID) *netsim.Segment {
	seg := pool.Get()
	seg.Flow = netsim.FlowKey{Src: netsim.HostID(1000 + src), Dst: dst, SrcPort: uint16(src), DstPort: 80}
	seg.Seq = int64(i) * netsim.DefaultMSS
	seg.Size = netsim.DefaultMSS + netsim.HeaderBytes
	seg.Flags = netsim.FlagECT
	return seg
}

// netsim: the host receive path with GRO on (eight interleaved in-order
// flows, so the aggregator merges up to its size limit and then flushes), and
// a serializing link, whose segments come from and return to the pool
// without a heap allocation.
func (p *probes) netsim() error {
	n := p.n(400_000)
	inject := typical(p.rounds(), func() float64 {
		eng := sim.NewEngine()
		h := netsim.NewHost(eng, netsim.HostConfig{ID: 1})
		h.EnableGRO(15 * sim.Microsecond)
		h.SetProtocolHandler(func(*netsim.Segment) {})
		batch := func(k int) {
			for i := 0; i < k; i++ {
				h.Inject(probeSegment(h.Pool(), i&7, i>>3, 1))
				if i&63 == 63 {
					eng.RunFor(100 * sim.Microsecond)
				}
			}
			eng.Run()
		}
		batch(4096) // fill the pool and the GRO table
		t0 := time.Now()
		batch(n)
		return since(t0)
	})
	p.set("netsim.inject_deliver_ns", inject/float64(n)*1e9)

	var allocs uint64
	link := typical(p.rounds(), func() float64 {
		eng := sim.NewEngine()
		pool := netsim.NewSegmentPool()
		l := netsim.NewLink(eng, netsim.DefaultServerRateBps, 2*sim.Microsecond)
		l.SetPool(pool)
		recycle := netsim.Deliver(pool.Put)
		batch := func(k int) {
			for i := 0; i < k; i++ {
				l.Send(probeSegment(pool, 0, i, 1), recycle)
				if i&63 == 63 {
					eng.Run()
				}
			}
			eng.Run()
		}
		batch(4096) // fill the pool and the event free list
		t0 := time.Now()
		allocs = mallocs(func() { batch(n) })
		return since(t0)
	})
	p.set("netsim.link_send_ns", link/float64(n)*1e9)
	p.set("netsim.pool_allocs_per_seg", math.Round(float64(allocs)/float64(n)*100)/100)
	return nil
}

var policyNames = []struct {
	name string
	pol  switchsim.Policy
}{
	{"dt", switchsim.PolicyDT}, {"static", switchsim.PolicyStatic}, {"complete", switchsim.PolicyComplete},
	{"bshare", switchsim.PolicyBShare}, {"abm", switchsim.PolicyABM},
}

// switchsim: eight senders burst at each of three ports that share one
// buffer quadrant, which overruns the shared pool under every policy; the
// switch then drains. Timed from ForwardFromFabric to the last dequeue.
func (p *probes) switchsim() error {
	const ports, senders, perSender = 24, 8, 48
	victims := []int{0, 4, 8} // port mod 4 is the quadrant
	rounds := p.n(160)
	for _, pn := range policyNames {
		var tot switchsim.QueueStats
		var allocs uint64
		segs := rounds * len(victims) * senders * perSender
		d := typical(p.rounds(), func() float64 {
			eng := sim.NewEngine()
			cfg := switchsim.DefaultConfig(ports)
			cfg.Policy = pn.pol
			sw := switchsim.New(eng, cfg)
			pool := sw.Pool()
			for port := 0; port < ports; port++ {
				sw.ConnectPort(port, pool.Put)
			}
			round := func() {
				for i := 0; i < perSender; i++ {
					for s := 0; s < senders; s++ {
						for _, v := range victims {
							sw.ForwardFromFabric(v, probeSegment(pool, s, i, netsim.HostID(v)))
						}
					}
				}
				eng.Run()
			}
			round() // fill the pool
			t0 := time.Now()
			allocs = mallocs(func() {
				for r := 0; r < rounds; r++ {
					round()
				}
			})
			tot = sw.Totals()
			return since(t0)
		})
		p.set("switchsim.forward_ns."+pn.name, d/float64(segs)*1e9)
		p.set("switchsim.drop_ratio."+pn.name,
			float64(tot.DiscardSegments)/float64(tot.DiscardSegments+tot.EnqueuedSegments))
		if pn.name == "dt" {
			p.set("switchsim.allocs_per_seg", math.Round(float64(allocs)/float64(segs)*100)/100)
		}
	}
	return nil
}

// transport: eight remote hosts each push a bulk DCTCP transfer at one server
// through its switch port; then connection set-up alone.
func (p *probes) transport() error {
	const senders = 8
	bytesEach := int64(p.n(40 << 20))
	var st transport.ConnStats
	bulk := typical(p.rounds(), func() float64 {
		rack := testbed.NewRack(testbed.RackConfig{Servers: 2, Remotes: senders, Seed: p.seed})
		conns := make([]*transport.Conn, senders)
		t0 := time.Now()
		for i := range conns {
			conns[i] = rack.RemoteEPs[i].Connect(rack.Servers[0].ID, 80, transport.Options{})
			conns[i].Send(bytesEach)
		}
		// The hosts' clock daemons tick for ever, so the engine never runs dry.
		for busy := true; busy; {
			rack.Eng.RunFor(sim.Millisecond)
			busy = false
			for _, c := range conns {
				busy = busy || c.Pending() != 0 || c.InflightBytes() != 0
			}
		}
		d := since(t0)
		st = transport.ConnStats{}
		for _, c := range conns {
			st.SentSegs += c.Stats.SentSegs
			st.RetxSegs += c.Stats.RetxSegs
		}
		return d
	})
	p.set("transport.segs_per_s", float64(st.SentSegs+st.RetxSegs)/bulk)
	p.set("transport.retx_ratio", float64(st.RetxSegs)/float64(st.SentSegs))

	n := p.n(20_000)
	connect := typical(p.rounds(), func() float64 {
		rack := testbed.NewRack(testbed.RackConfig{Servers: 2, Remotes: senders, Seed: p.seed})
		t0 := time.Now()
		for i := 0; i < n; i++ {
			c := rack.RemoteEPs[i%senders].Connect(rack.Servers[i&1].ID, 80, transport.Options{})
			if i&255 == 255 {
				rack.Eng.RunFor(sim.Millisecond)
				if !c.Established() {
					panic("benchmark: handshake did not finish")
				}
			}
		}
		return since(t0)
	})
	p.set("transport.connect_ns", connect/float64(n)*1e9)
	return nil
}

// core: Millisampler's per-packet hot path with and without the connection
// sketch (the paper's 88 and 84 ns), the harvest, and the bulk accounting
// entry the fluid path uses in place of per-packet handling.
func (p *probes) core() error {
	n := p.n(1_000_000)
	host := func(cfg core.Config) (*core.Sampler, []*netsim.Segment) {
		h := netsim.NewHost(sim.NewEngine(), netsim.HostConfig{ID: 1, Cores: 4})
		h.SetForwarder(netsim.ForwarderFunc(func(*netsim.Segment) {}))
		s := core.NewSampler(h, cfg)
		rng := sim.NewRNG(p.seed)
		segs := make([]*netsim.Segment, 64)
		for i := range segs {
			segs[i] = &netsim.Segment{
				Flow: netsim.FlowKey{Src: 7, Dst: 1, SrcPort: uint16(rng.Intn(1 << 16)), DstPort: 80},
				Size: 1500,
			}
			if i%5 == 0 {
				segs[i].Flags |= netsim.FlagCE
			}
			if i%17 == 0 {
				segs[i].Flags |= netsim.FlagRetx
			}
		}
		s.Enable()
		return s, segs
	}
	handle := func(cfg core.Config) float64 {
		return typical(p.rounds(), func() float64 {
			s, segs := host(cfg)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				s.Handle(0, i&3, netsim.Ingress, segs[i&63])
			}
			return since(t0)
		}) / float64(n) * 1e9
	}
	cfg := core.DefaultConfig()
	p.set("core.sampler_handle_ns", handle(cfg))
	noFlows := cfg
	noFlows.CountFlows = false
	p.set("core.sampler_handle_noflows_ns", handle(noFlows))

	reads := p.n(2000)
	read := typical(p.rounds(), func() float64 {
		s, segs := host(cfg)
		for i := 0; i < 10000; i++ {
			s.Handle(0, i&3, netsim.Ingress, segs[i&63])
		}
		t0 := time.Now()
		for i := 0; i < reads; i++ {
			_ = s.Read()
		}
		return since(t0)
	})
	p.set("core.sampler_read_us", read/float64(reads)*1e6)

	bulk := typical(p.rounds(), func() float64 {
		s, _ := host(cfg)
		buckets := s.Config().Buckets
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s.AccountBulk(i&1, i%buckets, 9000)
		}
		return since(t0)
	})
	p.set("core.account_bulk_ns", bulk/float64(n)*1e9)
	return nil
}

// testbed: assembling one rack, which both engines pay once per rack-hour.
func (p *probes) testbed() error {
	n := p.n(100)
	_, _, rcfg, _ := probeRack(p.rackBuckets())
	d := typical(p.rounds(), func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_ = testbed.NewRack(rcfg)
		}
		return since(t0)
	})
	p.set("testbed.rack_build_ms", d/float64(n)*1e3)
	return nil
}

// fluid: one rack-hour on the hybrid path, and the burst planner and
// detector on their own over the same pre-drawn schedule.
func (p *probes) fluid() error {
	cfg, _, rcfg, profiles := probeRack(p.rackBuckets())
	scfg := core.Config{Interval: cfg.Interval, Buckets: cfg.Buckets, CountFlows: true}
	var stats fluid.Stats
	n := p.n(3)
	d := typical(p.rounds(), func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			rack := testbed.NewRack(rcfg)
			res, err := fluid.SimulateRack(rack, profiles, rack.RNG.Fork(0x10AD), fluid.Config{Sampler: scfg})
			if err != nil {
				panic(err)
			}
			stats = res.Stats
		}
		return since(t0)
	})
	p.set("fluid.rackhour_ms", d/float64(n)*1e3)
	p.set("fluid.packet_burst_share", float64(stats.PacketBursts)/math.Max(1, float64(stats.PacketBursts+stats.FluidBursts)))
	p.set("fluid.episodes_per_rackhour", float64(stats.Episodes))

	// The schedule is drawn once, outside the timed part.
	type drawn struct {
		ev     workload.BurstEvent
		server int
		prof   workload.Profile
	}
	var events []drawn
	rng := sim.NewRNG(p.seed)
	span := 150*sim.Millisecond + scfg.Window()
	for i, pr := range profiles {
		for _, ev := range workload.DrawBursts(pr, span, rng.Fork(uint64(i))) {
			events = append(events, drawn{ev, i, pr})
		}
	}
	det := fluid.DefaultDetectorConfig()
	reps := p.n(200)
	dd := typical(p.rounds(), func() float64 {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			plan := make([]*fluid.PlannedBurst, len(events))
			for i, e := range events {
				fan := e.prof.FanIn
				if fan < 1 {
					fan = 1
				}
				plan[i] = fluid.PlanBurst(e.ev, e.server, fan, e.prof.FreshConns, netsim.DefaultServerRateBps, cfg.Interval, det)
			}
			_ = fluid.Detect(plan, det)
		}
		return since(t0)
	})
	p.set("fluid.detect_us", dd/float64(reps)*1e6)
	return nil
}

// analyze times the burst analysis over one packet-engine rack-hour.
func (p *probes) analyze() error {
	_, sr, err := packetRackHour(p.rackBuckets())
	if err != nil {
		return err
	}
	n := p.n(100)
	d := typical(p.rounds(), func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_ = analysis.Analyze(sr, analysis.DefaultOptions())
		}
		return since(t0)
	})
	p.set("analysis.analyze_ms", d/float64(n)*1e3)
	return nil
}
