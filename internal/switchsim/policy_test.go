package switchsim

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func newPolicySwitch(policy Policy, ports int) (*sim.Engine, *Switch) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(ports)
	cfg.Policy = policy
	sw := New(eng, cfg)
	for p := 0; p < ports; p++ {
		sw.ConnectPort(p, func(*netsim.Segment) {})
	}
	return eng, sw
}

// overload stuffs one queue with roughly twice the shared pool.
func overload(sw *Switch, port int) {
	target := 2 * sw.SharedCap()
	for sent := 0; sent < target; sent += 9066 {
		sw.ForwardFromFabric(port, dataSeg(9066, uint16(port)))
	}
}

func TestPolicyCompleteAllowsFullPool(t *testing.T) {
	eng, sw := newPolicySwitch(PolicyComplete, 8)
	overload(sw, 0)
	peak := sw.QueueStats(0).PeakBytes
	// Complete sharing lets a lone queue take (nearly) the whole pool plus
	// its dedicated reserve.
	wantMin := sw.SharedCap() - 9066
	if peak < wantMin {
		t.Errorf("complete-sharing peak %d below pool size %d", peak, wantMin)
	}
	eng.Run()
}

func TestPolicyStaticEnforcesQuota(t *testing.T) {
	eng, sw := newPolicySwitch(PolicyStatic, 16)
	overload(sw, 0)
	peak := sw.QueueStats(0).PeakBytes
	quota := sw.SharedCap()/4 /* 16 ports, 4 quadrants -> 4 queues/quadrant */ +
		sw.Config().DedicatedPerQueue
	if peak > quota+9066 {
		t.Errorf("static-partition peak %d exceeds quota %d", peak, quota)
	}
	eng.Run()
}

func TestPolicyOrderingUnderOverload(t *testing.T) {
	// Burst absorption headroom for a lone queue: complete > DT > static >
	// bshare. (16 ports: bshare quota ~312 KB < static quota Cap/4 < DT
	// lone-queue share Cap/2 < Cap.)
	peaks := map[Policy]int{}
	for _, pol := range KnownPolicies() {
		eng, sw := newPolicySwitch(pol, 16)
		overload(sw, 0)
		peaks[pol] = sw.QueueStats(0).PeakBytes
		eng.Run()
	}
	if !(peaks[PolicyComplete] > peaks[PolicyDT] && peaks[PolicyDT] > peaks[PolicyStatic] &&
		peaks[PolicyStatic] > peaks[PolicyBShare]) {
		t.Errorf("peak ordering violated: complete=%d dt=%d static=%d bshare=%d",
			peaks[PolicyComplete], peaks[PolicyDT], peaks[PolicyStatic], peaks[PolicyBShare])
	}
	// ABM's limit is DT's: every queue drains at line rate
	// (TestABMDrainFactorIsOne).
	if peaks[PolicyABM] != peaks[PolicyDT] {
		t.Errorf("abm peak %d differs from dt peak %d", peaks[PolicyABM], peaks[PolicyDT])
	}
}

func TestPolicyBShareBoundsDelay(t *testing.T) {
	eng, sw := newPolicySwitch(PolicyBShare, 16)
	overload(sw, 0)
	cfg := sw.Config()
	// Peak shared occupancy may not exceed the delay budget's worth of
	// line-rate drain; the whole-segment admit granularity allows one segment
	// of slop on top of the dedicated reserve.
	quota := int(cfg.BShareDelayTarget.Seconds() * float64(netsim.DefaultServerRateBps) / 8)
	if limit := quota + cfg.DedicatedPerQueue + 9066; sw.QueueStats(0).PeakBytes > limit {
		t.Errorf("bshare peak %d exceeds delay-budget limit %d", sw.QueueStats(0).PeakBytes, limit)
	}
	eng.Run()
}

func TestPolicyStringNames(t *testing.T) {
	names := map[Policy]string{
		PolicyDT:       "dynamic-threshold",
		PolicyStatic:   "static-partition",
		PolicyComplete: "complete-sharing",
		PolicyBShare:   "bshare",
		PolicyABM:      "abm",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
}

// TestPoliciesNeverOverflowPool drives every policy through random arrivals
// interleaved with random stretches of draining and checks, after each, the
// invariants the switch relies on: each quadrant's pool holds exactly the
// shared bytes its queues hold (bytes are conserved), never more than its
// capacity, every queue's limit is non-negative, and a drained switch's pools
// read empty.
func TestPoliciesNeverOverflowPool(t *testing.T) {
	for _, pol := range KnownPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			eng, sw := newPolicySwitch(pol, 8)
			rng := sim.NewRNG(uint64(pol) + 1)
			for i := 0; i < 3000; i++ {
				port := rng.Intn(8)
				sw.ForwardFromFabric(port, dataSeg(rng.Intn(9000)+66, uint16(port)))
				if rng.Intn(4) == 0 {
					eng.RunFor(sim.Time(rng.Intn(20)) * sim.Microsecond)
				}
				var held [Quadrants]int
				for _, q := range sw.queues {
					held[q.quadrant] += q.sharedUsed
					if th := sw.Threshold(q.port); th < 0 {
						t.Fatalf("step %d: port %d threshold %d < 0", i, q.port, th)
					}
				}
				for q := 0; q < Quadrants; q++ {
					if sw.SharedUsed(q) != held[q] {
						t.Fatalf("step %d: quadrant %d pool holds %d, its queues %d", i, q, sw.SharedUsed(q), held[q])
					}
					if sw.SharedUsed(q) > sw.SharedCap() {
						t.Fatalf("step %d: quadrant %d overflow", i, q)
					}
				}
			}
			eng.Run()
			for q := 0; q < Quadrants; q++ {
				if sw.SharedUsed(q) != 0 {
					t.Errorf("quadrant %d not drained: %d", q, sw.SharedUsed(q))
				}
			}
		})
	}
}

// TestABMDrainFactorIsOne pins the premise that lets ABM use DT's limit. ABM
// scales α·free by μ, an EWMA (τ = 1 ms) of a queue's dequeue rate over its
// line rate, sampled between departures of one busy period, clipped at 1 and
// floored at 0.05; abmSample is that estimator as the switch once ran it.
// Within a busy period this switch's departures are exactly
// SerializationDelay(size) apart, so μ starts at 1 and every sample is one
// (size, SerializationDelay(size)) pair. If each such pair maps μ = 1 to
// exactly 1.0, then by induction μ is 1.0 at every admission of every run,
// and int(α·free·μ) == int(α·free) bit for bit. The second half replays the
// departures of a real switch to check the spacing itself.
func TestABMDrainFactorIsOne(t *testing.T) {
	const tau = sim.Millisecond
	lineBps := float64(netsim.DefaultServerRateBps)
	abmSample := func(mu float64, size int, dt sim.Time) float64 {
		inst := min(float64(size)*8/dt.Seconds()/lineBps, 1)
		w := min(float64(dt)/float64(tau), 1)
		return max(mu+w*(inst-mu), 0.05)
	}

	link := netsim.NewLink(sim.NewEngine(), netsim.DefaultServerRateBps, DownlinkProp)
	for size := netsim.HeaderBytes; size <= netsim.DefaultMSS+netsim.HeaderBytes; size++ {
		if mu := abmSample(1, size, link.SerializationDelay(size)); mu != 1 {
			t.Fatalf("a %d-byte departure at line rate moves the drain factor to %v", size, mu)
		}
	}

	eng := sim.NewEngine()
	sw := New(eng, DefaultConfig(8))
	var samples int
	for p := 0; p < 8; p++ {
		mu, last, primed := 1.0, sim.Time(0), false
		sw.ConnectPort(p, func(seg *netsim.Segment) {
			now := eng.Now()
			if primed {
				if mu = abmSample(mu, seg.Size, now-last); mu != 1 {
					t.Fatalf("port %d at %v: drain factor %v after a %d-byte departure", p, now, mu, seg.Size)
				}
				samples++
			}
			// A drained queue ends its busy period: the gap to its next
			// departure is idle time, not a sample.
			primed, last = sw.QueueBytes(p) > 0, now
		})
	}
	goldenTraffic(eng, sw)
	eng.Run()
	if samples == 0 {
		t.Fatal("no departure fell inside a busy period")
	}
}
