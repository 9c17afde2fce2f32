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
	// ABM with every queue draining at line rate keeps mu near 1, so its peak
	// sits near DT's (within one jumbo segment of rounding).
	if diff := peaks[PolicyABM] - peaks[PolicyDT]; diff > 9066 || diff < -9066 {
		t.Errorf("abm peak %d strays from dt peak %d under uniform drains",
			peaks[PolicyABM], peaks[PolicyDT])
	}
}

func TestPolicyBShareBoundsDelay(t *testing.T) {
	eng, sw := newPolicySwitch(PolicyBShare, 16)
	overload(sw, 0)
	cfg := sw.Config()
	// Peak shared occupancy may not exceed the delay budget's worth of
	// line-rate drain; the whole-segment admit granularity allows one segment
	// of slop on top of the dedicated reserve.
	quota := int(cfg.BShareDelayTarget.Seconds() * float64(cfg.DownlinkRateBps) / 8)
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

func TestPoliciesNeverOverflowPool(t *testing.T) {
	for _, pol := range KnownPolicies() {
		eng, sw := newPolicySwitch(pol, 8)
		rng := sim.NewRNG(uint64(pol) + 1)
		for i := 0; i < 3000; i++ {
			port := rng.Intn(8)
			sw.ForwardFromFabric(port, dataSeg(rng.Intn(9000)+66, uint16(port)))
			for q := 0; q < sw.Config().Quadrants; q++ {
				if sw.SharedUsed(q) > sw.SharedCap() {
					t.Fatalf("%v: quadrant %d overflow", pol, q)
				}
			}
		}
		eng.Run()
		for q := 0; q < sw.Config().Quadrants; q++ {
			if sw.SharedUsed(q) != 0 {
				t.Errorf("%v: quadrant %d not drained", pol, q)
			}
		}
	}
}
