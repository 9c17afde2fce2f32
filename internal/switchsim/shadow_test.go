package switchsim

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// shadowConfigs is every policy, at alpha 0.5, 1 and 2 where alpha applies.
func shadowConfigs() []Config {
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

func shadowLabel(c Config) string { return fmt.Sprintf("%v a=%g", c.Policy, c.Alpha) }

// admissionTrace drives one scripted enqueue/dequeue trace through sw and
// returns its admission decisions in order. A 1.45 MB burst into one queue
// separates the policies that give a lone queue less room than that (static,
// bshare, DT and ABM at alpha 0.5) from those that give it more; paced
// trains into a second quadrant, with idle gaps between them, end busy
// periods and keep ABM's drain-rate estimator moving.
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

// TestShadowDivergesExactlyWhenSoloDiffers checks the shadow's contract on
// every ordered pair of policies: switch(P) carrying Shadow(Q) reports
// Diverged exactly when switch(Q) alone would have made a different
// admission decision somewhere in the same trace.
func TestShadowDivergesExactlyWhenSoloDiffers(t *testing.T) {
	cfgs := shadowConfigs()
	solo := make([][]bool, len(cfgs))
	for i, c := range cfgs {
		eng := sim.NewEngine()
		solo[i] = admissionTrace(eng, New(eng, c))
	}
	var agree, differ int
	for i, p := range cfgs {
		for j, q := range cfgs {
			eng := sim.NewEngine()
			sw := New(eng, p)
			sh, err := sw.Shadow(q)
			if err != nil {
				t.Fatalf("%s shadowing %s: %v", shadowLabel(p), shadowLabel(q), err)
			}
			if got := admissionTrace(eng, sw); !equalBools(got, solo[i]) {
				t.Fatalf("%s: a shadow of %s changed the switch's own decisions", shadowLabel(p), shadowLabel(q))
			}
			want := !equalBools(solo[i], solo[j])
			if sh.Diverged() != want {
				t.Errorf("switch %s, shadow %s: Diverged() = %v, solo runs differ = %v",
					shadowLabel(p), shadowLabel(q), sh.Diverged(), want)
			}
			if i != j {
				if want {
					differ++
				} else {
					agree++
				}
			}
		}
	}
	// The trace must separate some pairs and not others, or the check above
	// proves nothing about one of the two directions.
	if agree == 0 || differ == 0 {
		t.Errorf("trace is degenerate: %d distinct pairs agree, %d differ", agree, differ)
	}
}

// TestShadowedSwitchZeroAlloc extends the forwarding path's zero-alloc
// guarantee to a switch carrying shadows of every other policy.
func TestShadowedSwitchZeroAlloc(t *testing.T) {
	for _, p := range shadowConfigs() {
		t.Run(shadowLabel(p), func(t *testing.T) {
			eng := sim.NewEngine()
			sw := New(eng, p)
			for _, q := range shadowConfigs() {
				if _, err := sw.Shadow(q); err != nil {
					t.Fatal(err)
				}
			}
			pool := sw.Pool()
			sw.ConnectPort(0, func(seg *netsim.Segment) { pool.Put(seg) })
			send := func() {
				seg := pool.Get()
				seg.Flow = netsim.FlowKey{Src: 500, Dst: 0, SrcPort: 9, DstPort: 80}
				seg.Size = 9000
				seg.Flags = netsim.FlagECT
				sw.ForwardFromFabric(0, seg)
				eng.RunFor(100 * sim.Microsecond)
			}
			for i := 0; i < 64; i++ {
				send()
			}
			if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
				t.Fatalf("shadowed enqueue/dequeue allocates %.2f objects per segment, want 0", allocs)
			}
		})
	}
}

// TestShadowRefusesOtherSwitches: a shadow may change the sharing policy's
// parameters only; another ECN threshold or buffer is another switch.
func TestShadowRefusesOtherSwitches(t *testing.T) {
	sw := New(sim.NewEngine(), DefaultConfig(16))
	ecn := DefaultConfig(16)
	ecn.ECNThreshold = 60 << 10
	buf := DefaultConfig(16)
	buf.TotalBuffer = 32 << 20
	for name, c := range map[string]Config{"ECN threshold": ecn, "buffer": buf} {
		if _, err := sw.Shadow(c); err == nil {
			t.Errorf("a shadow with another %s was accepted", name)
		}
	}
	ok := DefaultConfig(16)
	ok.Policy, ok.Alpha, ok.BShareDelayTarget = PolicyBShare, 2, 100*sim.Microsecond
	if _, err := sw.Shadow(ok); err != nil {
		t.Errorf("a shadow differing only in policy parameters was refused: %v", err)
	}
}
