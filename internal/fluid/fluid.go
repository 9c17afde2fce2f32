package fluid

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/testbed"
	"repro/internal/transport"
	"repro/internal/workload"
)

// DefaultWarmup is the hybrid window lead: comfortably past the controller's
// scheduling lead and the pre-dialed pools' handshakes, but an order of
// magnitude shorter than the 150 ms the full-fidelity path spends letting
// congestion state adapt — the hybrid path primes that state in closed form
// instead of simulating its way there.
const DefaultWarmup = 20 * sim.Millisecond

// Config parameterizes one hybrid rack-hour.
type Config struct {
	// Sampler is the SyncMillisampler run configuration.
	Sampler core.Config
}

// Stats reports how the detector split the window.
type Stats struct {
	PacketBursts int
	FluidBursts  int
	Episodes     int
}

// Result is one hybrid rack-hour: the aligned SyncRun plus the switch
// counter movement, directly comparable with the full-fidelity outputs.
type Result struct {
	Sync          *core.SyncRun
	Before, After switchsim.QueueStats
	// PeakQueueBytes is the highest single-queue occupancy: the packet
	// episodes' measured peak or the fluid backlog estimate, whichever is
	// larger.
	PeakQueueBytes int
	Stats          Stats
}

// serverState is one server's hybrid bookkeeping.
type serverState struct {
	prof workload.Profile
	rate int64 // line rate, bps

	pool       []*transport.Conn
	poolHashes []uint64
	next       int // round-robin cursor, as in ServerLoad

	bgHashes  []uint64
	bgWireBps float64  // background wire bytes/s
	bgSegBps  float64  // background segments/s
	bgPhase   sim.Time // first background tick, mirroring ServerLoad's desync draw

	plan []*PlannedBurst
	// freshPicks/freshHashes index plan: remote endpoints pre-drawn for
	// fresh packet bursts, synthetic sketch hashes for fresh fluid bursts.
	freshPicks  map[int][]int
	freshHashes map[int][]uint64
}

// SimulateRack runs one rack-hour at hybrid fidelity: pre-draws every
// server's burst schedule, lets the detector pick the packet episodes,
// simulates only those on the segment engine (with transport primed to
// equilibrium), and accounts everything else — background load and lone
// persistent bursts — through the fluid model straight into the sampler
// buckets and switch counters.
func SimulateRack(rack *testbed.Rack, profiles []workload.Profile, rng *sim.RNG, cfg Config) (*Result, error) {
	if len(profiles) != len(rack.Servers) {
		return nil, fmt.Errorf("fluid: %d profiles for %d servers (need one per server)",
			len(profiles), len(rack.Servers))
	}
	det := DefaultDetectorConfig()
	const warmup = DefaultWarmup

	ctrl := core.NewController(rack, cfg.Sampler)
	scfg := ctrl.Samplers()[0].Config()
	interval, buckets := scfg.Interval, scfg.Buckets
	windowEnd := warmup + scfg.Window()
	harvestAt := ctrl.HarvestAt(warmup)

	baseRTT := 2 * (testbed.FabricDelay + switchsim.DownlinkProp)
	eqWindow := transport.EquilibriumWindow(netsim.DefaultServerRateBps, baseRTT, rack.Switch.Config().ECNThreshold)

	// Per-server setup: dial and prime the persistent pools, synthesize the
	// background flows, pre-draw the whole window's burst schedule.
	states := make([]*serverState, len(profiles))
	var plan []*PlannedBurst
	for i, p := range profiles {
		srng := rng.Fork(uint64(i))
		st := &serverState{
			prof:        p,
			rate:        rack.Servers[i].LineRateBps(),
			freshPicks:  map[int][]int{},
			freshHashes: map[int][]uint64{},
		}
		dst := rack.Servers[i].ID
		fan := p.FanIn
		if fan < 1 {
			fan = 1
		}
		if !p.FreshConns {
			for j := 0; j < fan; j++ {
				ep := rack.RemoteEPs[srng.Intn(len(rack.RemoteEPs))]
				c := ep.Connect(dst, 80, transport.Options{})
				c.Prime(eqWindow)
				st.pool = append(st.pool, c)
				st.poolHashes = append(st.poolHashes, core.FlowHash(c.Flow()))
			}
		}
		for j := 0; j < workload.BackgroundPoolSize; j++ {
			rid := srng.Intn(len(rack.RemoteEPs))
			f := netsim.FlowKey{
				Src:     testbed.RemoteIDBase + netsim.HostID(rid),
				Dst:     dst,
				SrcPort: uint16(40000 + j),
				DstPort: 81,
			}
			st.bgHashes = append(st.bgHashes, core.FlowHash(f))
		}
		// Background offered load in wire terms, mirroring ServerLoad's
		// 2 ms tick split over the background pool.
		bgTick := int64(p.BackgroundBytesPerSec(st.rate) * workload.BackgroundTick.Seconds())
		if bgTick > 0 {
			per := bgTick / workload.BackgroundPoolSize
			if per < 1 {
				per = 1
			}
			segs := (per + netsim.DefaultMSS - 1) / netsim.DefaultMSS
			wire := workload.BackgroundPoolSize * (per + segs*netsim.HeaderBytes)
			tickSec := workload.BackgroundTick.Seconds()
			st.bgWireBps = float64(wire) / tickSec
			st.bgSegBps = float64(workload.BackgroundPoolSize*segs) / tickSec
		}
		for _, ev := range workload.DrawBursts(p, harvestAt, srng) {
			b := PlanBurst(ev, i, fan, p.FreshConns, st.rate, interval, det)
			st.plan = append(st.plan, b)
			plan = append(plan, b)
			if p.FreshConns {
				bi := len(st.plan) - 1
				picks := make([]int, fan)
				for j := range picks {
					picks[j] = srng.Intn(len(rack.RemoteEPs))
				}
				st.freshPicks[bi] = picks
			}
		}
		if st.bgWireBps > 0 {
			// The background pool transmits only at its 2 ms pacing ticks, so
			// its connections appear in roughly every other 1 ms sample — not
			// all of them. Drawing the tick phase here (after the burst
			// schedule, so the plan is unchanged) lets the fluid accountant
			// credit the pool's hashes with the same tick granularity.
			st.bgPhase = sim.Time(srng.Int63n(int64(workload.BackgroundTick)))
		}
		states[i] = st
	}

	episodes := Detect(plan, det)
	res := &Result{Stats: Stats{Episodes: len(episodes)}}

	// Schedule the packet episodes. Bursts that cannot touch the sampling
	// window or the counter span are demoted to fluid accounting even when
	// the detector flagged them (their episode partner may still straddle
	// the boundary and stays packet-simulated).
	for si, st := range states {
		for bi, b := range st.plan {
			_, spanEnd := b.Span(det)
			packet := b.Packet && spanEnd > warmup && b.At < windowEnd
			if !packet {
				res.Stats.FluidBursts++
				if b.Fresh && !b.Subcritical {
					// The sketch still needs this burst's fan-in.
					st.freshHashes[bi] = syntheticHashes(rack.Servers[si].ID, bi, b.Fan)
				}
				b.Packet = false
				continue
			}
			res.Stats.PacketBursts++
			st := st
			b := b
			picks := st.freshPicks[bi]
			dst := rack.Servers[si].ID
			rack.Eng.At(b.At, func() {
				if b.Fresh {
					for _, ri := range picks {
						c := rack.RemoteEPs[ri].Connect(dst, 80, transport.Options{})
						c.Send(b.PerConn)
						c.OnDrain = c.Close
					}
					return
				}
				for j := 0; j < b.Fan; j++ {
					st.pool[st.next].Send(b.PerConn)
					st.next = (st.next + 1) % len(st.pool)
				}
			})
		}
	}

	if err := ctrl.Schedule(warmup); err != nil {
		return nil, err
	}
	rack.Eng.RunUntil(warmup)
	res.Before = rack.Switch.Totals()
	for _, s := range ctrl.Samplers() {
		s.MarkStart()
	}

	// Packet episodes play out on the segment engine; the engine skips the
	// quiet spans between them in O(1).
	rack.Eng.RunUntil(windowEnd)

	// Fold the fluid traffic in before the harvest reads the samplers.
	fluidPeak := 0
	for si, st := range states {
		p := applyFluid(rack, ctrl.Samplers()[si], st, si, warmup, harvestAt, interval, buckets, eqWindow)
		if p > fluidPeak {
			fluidPeak = p
		}
	}

	rack.Eng.RunUntil(harvestAt + sim.Millisecond)
	res.After = rack.Switch.Totals()
	if !ctrl.Done() {
		rack.Eng.RunUntil(ctrl.HarvestDeadline(warmup) + sim.Millisecond)
	}
	res.PeakQueueBytes = rack.Switch.PeakQueueBytes()
	if fluidPeak > res.PeakQueueBytes {
		res.PeakQueueBytes = fluidPeak
	}

	sr, err := ctrl.Result()
	if err != nil {
		return nil, err
	}
	res.Sync = sr
	return res, nil
}

// applyFluid accounts one server's analytic traffic — background load plus
// its fluid bursts — into the sampler buckets and the switch counters, and
// returns the server's fluid peak-backlog estimate.
func applyFluid(rack *testbed.Rack, s *core.Sampler, st *serverState, port int,
	warmup, harvestAt, interval sim.Time, buckets int, eqWindow int64) int {
	drainBps := float64(st.rate) / 8
	var deltas []rateDelta
	if st.bgWireBps > 0 {
		deltas = append(deltas,
			rateDelta{at: 0, bps: st.bgWireBps},
			rateDelta{at: harvestAt, bps: -st.bgWireBps})
	}
	type fluidBurst struct {
		b      *PlannedBurst
		hashes []uint64
	}
	var fb []fluidBurst
	totalSegs, totalWire := 0.0, 0.0
	for bi, b := range st.plan {
		if b.Packet {
			continue
		}
		// A fluid burst arrives at the downlink's drain rate: the remotes
		// can deliver faster, but the transport's equilibrium window keeps
		// the standing queue near the ECN threshold rather than letting the
		// whole volume pile in — the backlog the walker tracks is then only
		// what competing fluid traffic defers.
		deltas = append(deltas,
			rateDelta{at: b.At, bps: drainBps},
			rateDelta{at: b.At + b.Drain, bps: -drainBps})
		hashes := st.poolHashes
		if b.Fresh {
			hashes = st.freshHashes[bi]
		}
		fb = append(fb, fluidBurst{b: b, hashes: hashes})
		segs := float64(b.Fan) * float64((b.PerConn+netsim.DefaultMSS-1)/netsim.DefaultMSS)
		totalSegs += segs
		totalWire += float64(b.WireBytes)
	}
	w := walk(deltas, drainBps, harvestAt, warmup, interval, buckets)

	// Sampler: ingress bytes and the connection sketch, the counters the
	// aligned series read. Retransmissions stay zero — the fluid fraction is
	// the traffic the full engine shows to be loss-free.
	for k, v := range w.out {
		if v <= 0 {
			continue
		}
		s.AccountBulk(core.CtrIn, k, uint64(v+0.5))
		// The background transport pool is reused tick to tick, so its
		// connections register only in samples containing a pacing tick —
		// crediting every output bucket would overstate conns-in-burst by
		// ~BackgroundPoolSize/2 (the hybrid path's former worst headline
		// error, 18% on Fig 8).
		if len(st.bgHashes) > 0 && st.bgWireBps > 0 &&
			bgTickInBucket(st.bgPhase, warmup+sim.Time(k)*interval, interval) {
			s.AccountConns(k, st.bgHashes)
		}
	}
	markFrac := transport.EquilibriumMarkFraction(eqWindow, netsim.DefaultMSS)
	var markedBytes, markedSegs float64
	bucketOf := func(t sim.Time) int { return int((t - warmup) / interval) }
	swCfg := rack.Switch.Config()
	peak := int(w.peak + 0.5)
	for _, f := range fb {
		first, last := bucketOf(f.b.At), bucketOf(f.b.At+f.b.Drain)
		for k := first; k <= last; k++ {
			if k < 0 || k >= buckets {
				continue
			}
			s.AccountConns(k, f.hashes)
		}
		// ECN: a persistent DCTCP burst longer than one equilibrium window
		// closes the feedback loop and sees the equilibrium mark fraction;
		// anything shorter is sub-RTT from the transport's perspective and
		// escapes marking (the paper's core observation).
		if !f.b.Fresh && f.b.WireBytes > eqWindow {
			mb := markFrac * float64(f.b.WireBytes)
			markedBytes += mb
			markedSegs += mb / float64(netsim.DefaultMSS+netsim.HeaderBytes)
			// The standing queue DCTCP holds at the marking threshold.
			if q := swCfg.ECNThreshold + int(w.peak); q > peak {
				peak = q
			}
		}
	}

	// Switch counters over [warmup, harvestAt] — the same span the
	// full-fidelity path's Before/After snapshots delimit. Segment counts
	// are estimated from the planned mix's mean wire segment size.
	total := w.total()
	if total > 0 {
		span := (harvestAt - warmup).Seconds()
		segs := st.bgSegBps * span
		if totalWire > 0 {
			// Fluid bursts' share of the drained bytes, at their seg size.
			burstBytes := total - st.bgWireBps*span
			if burstBytes > 0 {
				segs += totalSegs * burstBytes / totalWire
			}
		}
		rack.Switch.AccountFluid(port, switchsim.QueueStats{
			EnqueuedBytes:    int64(total + 0.5),
			EnqueuedSegments: int64(segs + 0.5),
			DequeuedBytes:    int64(total + 0.5),
			ECNMarkedBytes:   int64(markedBytes + 0.5),
			ECNMarkedSegs:    int64(markedSegs + 0.5),
			PeakBytes:        peak,
		})
	}
	return peak
}

// bgTickInBucket reports whether a background pacing tick (first at phase,
// then every workload.BackgroundTick) lands inside [start, start+interval).
func bgTickInBucket(phase, start, interval sim.Time) bool {
	if start+interval <= phase {
		return false
	}
	off := (start - phase) % workload.BackgroundTick
	if off < 0 {
		off += workload.BackgroundTick
	}
	next := (workload.BackgroundTick - off) % workload.BackgroundTick
	return next < interval
}

// syntheticHashes fabricates sketch hashes for a fresh fluid burst's fan-in:
// the connections are never dialed, but the per-bucket connection estimate
// must still see them.
func syntheticHashes(dst netsim.HostID, burst, fan int) []uint64 {
	h := make([]uint64, fan)
	for j := 0; j < fan; j++ {
		f := netsim.FlowKey{
			Src:     testbed.RemoteIDBase + netsim.HostID(j),
			Dst:     dst,
			SrcPort: uint16(50000 + burst),
			DstPort: 80,
		}
		h[j] = core.FlowHash(f)
	}
	return h
}
