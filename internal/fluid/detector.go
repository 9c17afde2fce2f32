// Package fluid implements the hybrid-fidelity fast path: between
// "interesting" epochs a rack advances in closed form — per-host offered
// load from the workload profiles, steady-state queueing from the switch
// parameters, transport at its congestion equilibrium — and only when the
// burst detector trips does the existing segment-level engine run, through
// the episode, against state primed from the fluid model.
//
// The split is exact where the paper's mechanisms live and approximate where
// they do not: any burst that can contend (overlap another burst) or collide
// in slow start (fresh-connection incast) runs on the segment engine, so
// buffer contention, DT threshold collapse, ECN timing, and loss are
// packet-accurate; lone persistent-connection bursts and smooth background
// load — which the full engine shows to be loss-free — are accounted
// analytically.
package fluid

import (
	"sort"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// DetectorConfig parameterizes the burst detector deciding which scheduled
// bursts need packet fidelity.
type DetectorConfig struct {
	// RateThreshold mirrors analysis.Options.BurstThreshold: a burst whose
	// entire wire volume cannot push a single sampling bucket past this
	// utilization fraction is subcritical — it can never register as a
	// burst sample, so it never triggers packet fidelity.
	RateThreshold float64
	// Lead is slack added before a burst's estimated span when testing for
	// overlap with other bursts (slow-start ramp before the flight reaches
	// line rate).
	Lead sim.Time
	// Tail is slack after the estimated line-rate drain (residual queue
	// occupancy while DCTCP bleeds the standing queue back down).
	Tail sim.Time
	// Depth is the concurrent-burst count at which an overlap cluster goes
	// packet-level regardless of composition: enough simultaneous standing
	// queues to draw the shared pool down and move the DT thresholds.
	Depth int
}

// DefaultDetectorConfig uses the analysis burst threshold (50% of a bucket)
// and slack on the scale bursts actually couple through the shared buffer:
// the queue drains to empty within ~100 µs of a burst ending (the standing
// queue is held near the 120 KB ECN threshold, ~77 µs at 12.5 Gb/s), so two
// bursts further apart than that never contend for buffer even when the
// 1 ms analysis grid bins them as concurrent — the fluid path reproduces
// grid-level concurrency by construction.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		RateThreshold: 0.5,
		Lead:          100 * sim.Microsecond,
		Tail:          250 * sim.Microsecond,
		Depth:         3,
	}
}

// PlannedBurst is one pre-drawn burst with the derived quantities the
// detector and the fluid accountant work from.
type PlannedBurst struct {
	Server int
	workload.BurstEvent
	Fresh bool
	Fan   int

	// WireBytes is the burst volume in wire bytes after the per-connection
	// split ServerLoad applies (payload plus per-segment framing).
	WireBytes int64
	// PerConn is the per-connection payload split.
	PerConn int64
	// Drain is the estimated time the burst occupies the downlink when it
	// arrives faster than the server's line rate.
	Drain sim.Time
	// Subcritical marks bursts too small to ever register as bursty.
	Subcritical bool

	// Packet is set by Detect when the burst must run on the segment engine.
	Packet bool
}

// Span returns the interval during which the burst can interact with other
// bursts under the detector's slack.
func (b *PlannedBurst) Span(cfg DetectorConfig) (start, end sim.Time) {
	return b.At - cfg.Lead, b.At + b.Drain + cfg.Tail
}

// PlanBurst derives a scheduled burst's detector quantities for a server
// with the given line rate, sampled at interval.
func PlanBurst(ev workload.BurstEvent, server, fan int, fresh bool, lineRateBps int64, interval sim.Time, cfg DetectorConfig) *PlannedBurst {
	if fan < 1 {
		fan = 1
	}
	per := int64(ev.Volume / float64(fan))
	if per < 1 {
		per = 1
	}
	segs := (per + netsim.DefaultMSS - 1) / netsim.DefaultMSS
	wire := int64(fan) * (per + segs*netsim.HeaderBytes)
	drainBps := float64(lineRateBps) / 8
	b := &PlannedBurst{
		Server:     server,
		BurstEvent: ev,
		Fresh:      fresh,
		Fan:        fan,
		WireBytes:  wire,
		PerConn:    per,
		Drain:      sim.Time(float64(wire) / drainBps * float64(sim.Second)),
	}
	bucketCap := drainBps * interval.Seconds()
	b.Subcritical = float64(wire) < cfg.RateThreshold*bucketCap
	return b
}

// Episode is one maximal cluster of overlapping burst spans containing at
// least one packet-fidelity burst. Bursts lists only the cluster's packet
// members (fluid-demoted overlap partners are accounted analytically).
type Episode struct {
	Start, End sim.Time
	Bursts     []int // indices into the plan passed to Detect
}

// Detect decides fidelity per burst and returns the packet episodes in start
// order. A burst needs the segment engine only where the fluid model's
// decoupling assumptions break:
//
//   - it overlaps another burst headed to the same server — a shared egress
//     queue, where deferral, ECN timing, and loss are joint;
//   - it is, or overlaps, a fresh-connection burst that overlaps anything —
//     incast slow-start flights colliding with concurrent traffic;
//   - it is active while >= Depth bursts run concurrently — enough standing
//     queues to draw down the shared pool and collapse the DT thresholds.
//
// Overlapping persistent bursts on distinct servers below that depth stay
// fluid: their queues are disjoint, the shared pool is nowhere near
// exhaustion, and the analysis-grid concurrency they produce (Fig 9) falls
// out of binning their fluid bytes into the same samples. Subcritical bursts
// (too small to ever register as bursty) neither trigger nor join episodes.
// The result is a pure function of the plan — independent of engine state,
// worker count, or invocation order.
func Detect(plan []*PlannedBurst, cfg DetectorConfig) []Episode {
	var idx []int
	for i, b := range plan {
		b.Packet = false
		if !b.Subcritical {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		sa, _ := plan[idx[a]].Span(cfg)
		sb, _ := plan[idx[b]].Span(cfg)
		if sa != sb {
			return sa < sb
		}
		return idx[a] < idx[b]
	})

	// Sweep in span order keeping the set of bursts whose spans are still
	// open. Every active burst's span genuinely overlaps the incoming one
	// (active.start <= new.start < active.end), so pairwise rules apply
	// directly; the transitive cluster is tracked only to delimit episodes.
	var active []int
	for _, i := range idx {
		s, e := plan[i].Span(cfg)
		live := active[:0]
		for _, j := range active {
			if _, je := plan[j].Span(cfg); je > s {
				live = append(live, j)
			}
		}
		active = append(live, i)
		n := plan[i]
		for _, j := range active[:len(active)-1] {
			o := plan[j]
			if o.Server == n.Server || o.Fresh || n.Fresh {
				o.Packet = true
				n.Packet = true
			}
		}
		if len(active) >= cfg.Depth {
			for _, j := range active {
				plan[j].Packet = true
			}
		}
		_ = e
	}

	// Group packet bursts into episodes by transitive span overlap.
	var episodes []Episode
	var cluster []int
	var cStart, cEnd sim.Time
	flush := func() {
		if len(cluster) > 0 {
			episodes = append(episodes, Episode{Start: cStart, End: cEnd, Bursts: cluster})
		}
	}
	for _, i := range idx {
		if !plan[i].Packet {
			continue
		}
		s, e := plan[i].Span(cfg)
		if len(cluster) > 0 && s <= cEnd {
			cluster = append(cluster, i)
			if e > cEnd {
				cEnd = e
			}
			continue
		}
		flush()
		cluster = []int{i}
		cStart, cEnd = s, e
	}
	flush()
	return episodes
}
