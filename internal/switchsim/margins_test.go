package switchsim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// policyConfigs is every policy, at alpha 0.5, 1 and 2 where alpha applies.
func policyConfigs() []Config {
	var out []Config
	for _, pol := range KnownPolicies() {
		alphas := []float64{1}
		if pol == PolicyDT || pol == PolicyABM {
			alphas = []float64{0.5, 1, 2}
		}
		for _, a := range alphas {
			cfg := DefaultConfig(16)
			cfg.Policy, cfg.Alpha = pol, a
			out = append(out, cfg)
		}
	}
	return out
}

func configLabel(c Config) string { return fmt.Sprintf("%v a=%g", c.Policy, c.Alpha) }

// admissionTrace drives one scripted enqueue/dequeue trace through sw and
// returns its admission decisions in order. A 1.45 MB burst into one queue
// separates the policies that give a lone queue less room than that (static,
// bshare, DT and ABM at alpha 0.5) from those that give it more; paced
// trains into a second quadrant, with idle gaps between them, end busy
// periods.
func admissionTrace(eng *sim.Engine, sw *Switch) []bool {
	var got []bool
	send := func(port int) {
		before := sw.QueueStats(port).DiscardSegments
		sw.ForwardFromFabric(port, dataSeg(9066, uint16(port)))
		got = append(got, sw.QueueStats(port).DiscardSegments == before)
	}
	for i := 0; i < 160; i++ {
		send(0)
		if i%3 == 0 {
			send(4) // same quadrant as port 0: a second queue on its pool
		}
		eng.RunFor(sim.Microsecond)
	}
	for train := 0; train < 4; train++ {
		for i := 0; i < 30; i++ {
			send(5)
			eng.RunFor(2 * sim.Microsecond)
		}
		eng.RunFor(500 * sim.Microsecond)
	}
	eng.Run()
	return got
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMarginsAlikeExactlyWhenSoloAgrees checks the margins' contract on
// every ordered pair of configurations: switch(P)'s margins call Q alike
// exactly when switch(Q) alone makes every admission decision of the same
// trace as switch(P) did. The trace splits the distinct pairs 42 agreeing and
// 30 differing, so both directions of the contract are exercised.
func TestMarginsAlikeExactlyWhenSoloAgrees(t *testing.T) {
	cfgs := policyConfigs()
	solo := make([][]bool, len(cfgs))
	margins := make([]Margins, len(cfgs))
	for i, c := range cfgs {
		eng := sim.NewEngine()
		sw := New(eng, c)
		solo[i] = admissionTrace(eng, sw)
		margins[i] = sw.Margins()
	}
	var agree, differ int
	for i, p := range cfgs {
		for j, q := range cfgs {
			want := equalBools(solo[i], solo[j])
			if got := margins[i].Alike(q); got != want {
				t.Errorf("switch %s: Alike(%s) = %v, solo runs agree = %v",
					configLabel(p), configLabel(q), got, want)
			}
			if i != j {
				if want {
					agree++
				} else {
					differ++
				}
			}
		}
	}
	if agree != 42 || differ != 30 {
		t.Errorf("trace splits the distinct pairs %d agreeing / %d differing, want 42 / 30", agree, differ)
	}
}

// TestAlphaBoundIsTheLeastAdmittingAlpha: over random (n, free), DT at the
// bound admits a queue reaching n shared bytes, and DT at the float just
// below it does not. The plain quotient n/free misses one way or the other
// on about one pair in eight.
func TestAlphaBoundIsTheLeastAdmittingAlpha(t *testing.T) {
	rng := sim.NewRNG(15)
	for i := 0; i < 200000; i++ {
		n, free := 1+rng.Intn(1<<23), 1+rng.Intn(1<<23)
		a := alphaBound(n, free)
		if lim := (rule{policy: PolicyDT, alpha: a}).limit(free); lim < n {
			t.Fatalf("alphaBound(%d, %d) = %v: limit %d does not reach n", n, free, a, lim)
		}
		below := math.Nextafter(a, 0)
		if lim := (rule{policy: PolicyDT, alpha: below}).limit(free); lim >= n {
			t.Fatalf("alphaBound(%d, %d) = %v: the float below, %v, already reaches n (limit %d)", n, free, a, below, lim)
		}
	}
}

// TestAlphaBoundsAreExact: at each finite α bound a switch's margins hold,
// and at the float just below it, a solo DT switch on the same trace answers
// every admission alike exactly when the margins say it does — each bound
// sits on the float where DT's answers change. DT at α 0.1 to 0.4 refuses
// within the trace, so those switches' intervals are closed on both sides.
func TestAlphaBoundsAreExact(t *testing.T) {
	cfgs := policyConfigs()
	for _, a := range []float64{0.1, 0.2, 0.3, 0.4} {
		c := DefaultConfig(16)
		c.Alpha = a
		cfgs = append(cfgs, c)
	}
	var alike, unlike int
	for _, p := range cfgs {
		eng := sim.NewEngine()
		sw := New(eng, p)
		own := admissionTrace(eng, sw)
		m := sw.Margins()
		for _, b := range []float64{m.alphaLo, m.alphaHi} {
			if math.IsInf(b, 1) {
				continue
			}
			for _, a := range []float64{b, math.Nextafter(b, 0)} {
				q := DefaultConfig(16)
				q.Alpha = a
				eng := sim.NewEngine()
				want := equalBools(own, admissionTrace(eng, New(eng, q)))
				if got := m.Alike(q); got != want {
					t.Errorf("switch %s: Alike(dt a=%v) = %v, solo runs agree = %v", configLabel(p), a, got, want)
				}
				if want {
					alike++
				} else {
					unlike++
				}
			}
		}
	}
	if alike == 0 || unlike == 0 {
		t.Errorf("bounds checked: %d alike, %d unlike; the check proves nothing about one side", alike, unlike)
	}
}

// TestMarginsIgnoreFullPool: a segment refused for want of room is refused
// by every rule, so it moves no margin. Complete sharing, overloaded until
// its pool overflows, still matches itself.
func TestMarginsIgnoreFullPool(t *testing.T) {
	_, sw := newPolicySwitch(PolicyComplete, 8)
	overload(sw, 0)
	if sw.TotalDiscards == 0 {
		t.Fatal("the pool never overflowed")
	}
	if !sw.Margins().Alike(sw.Config()) {
		t.Error("an overflowing pool made complete sharing unlike itself")
	}
}

// TestShadowedSwitchZeroAlloc extends the forwarding path's zero-alloc
// guarantee to admissions that move the margins: each configuration's queue
// is overloaded in bursts, so refusals follow admissions on every cycle.
func TestShadowedSwitchZeroAlloc(t *testing.T) {
	for _, p := range policyConfigs() {
		t.Run(configLabel(p), func(t *testing.T) {
			eng := sim.NewEngine()
			sw := New(eng, p)
			pool := sw.Pool()
			sw.ConnectPort(0, func(seg *netsim.Segment) { pool.Put(seg) })
			burst := func() {
				for i := 0; i < 600; i++ {
					seg := pool.Get()
					seg.Flow = netsim.FlowKey{Src: 500, Dst: 0, SrcPort: 9, DstPort: 80}
					seg.Size = 9000
					seg.Flags = netsim.FlagECT
					sw.ForwardFromFabric(0, seg)
				}
				eng.RunFor(5 * sim.Millisecond)
			}
			burst()
			drops := sw.TotalDiscards
			if allocs := testing.AllocsPerRun(20, burst); allocs != 0 {
				t.Fatalf("a burst through the admission path allocates %.2f objects, want 0", allocs)
			}
			if sw.TotalDiscards == drops {
				t.Fatal("the bursts refused nothing")
			}
		})
	}
}

// TestMarginsRefuseOtherSwitches: margins match a rule of the same switch
// only; another ECN threshold or buffer is another switch.
func TestMarginsRefuseOtherSwitches(t *testing.T) {
	m := New(sim.NewEngine(), DefaultConfig(16)).Margins()
	ecn := DefaultConfig(16)
	ecn.ECNThreshold = 60 << 10
	buf := DefaultConfig(16)
	buf.TotalBuffer = 32 << 20
	for name, c := range map[string]Config{"ECN threshold": ecn, "buffer": buf, "invalid": {}} {
		if m.Alike(c) {
			t.Errorf("margins matched a switch with another %s", name)
		}
	}
	ok := DefaultConfig(16)
	ok.Policy, ok.Alpha, ok.BShareDelayTarget = PolicyBShare, 2, 100*sim.Microsecond
	ok.Pool = netsim.NewSegmentPool()
	if !m.Alike(ok) {
		t.Error("fresh margins refused a switch differing only in policy parameters and pool")
	}
}
