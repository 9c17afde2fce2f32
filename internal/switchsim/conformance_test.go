package switchsim

import (
	"testing"

	"repro/internal/sim"
)

// TestPolicyRegistryComplete is the enumeration gate behind Known, String,
// ParsePolicy and MarshalText all agreeing on the policy set: the registry
// must be indexed by Policy value, fully populated, and free of name
// collisions. A policy added to the const block without a registry entry (or
// vice versa) fails here before it can fail confusingly in a sweep.
func TestPolicyRegistryComplete(t *testing.T) {
	names := map[string]bool{}
	for i, e := range policyRegistry {
		if int(e.policy) != i {
			t.Errorf("registry[%d] holds %v: order must match the Policy constants", i, e.policy)
		}
		if e.name == "" || e.short == "" {
			t.Errorf("registry[%d] (%v) missing a name", i, e.policy)
		}
		if names[e.name] || names[e.short] {
			t.Errorf("registry[%d] (%v) reuses a name: %q/%q", i, e.policy, e.name, e.short)
		}
		names[e.name] = true
		if e.short != e.name {
			names[e.short] = true
		}
	}
	if got, want := len(KnownPolicies()), len(policyRegistry); got != want {
		t.Errorf("KnownPolicies() lists %d policies, registry has %d", got, want)
	}
}

// TestPolicyConformance checks every policy's rule, at α 0.5, 1 and 2, over
// random pool states against the contract the switch and its margins rely
// on: its limit is never negative, and admission is monotone — what it
// admits of a segment that fits it also admits with fewer bytes held, a
// smaller segment, or more of the pool free. The room check is the switch's
// (TestDTNeverOverflowsPool).
func TestPolicyConformance(t *testing.T) {
	const sharedCap = 1 << 20
	for _, pol := range KnownPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			rng := sim.NewRNG(uint64(pol)*7 + 1)
			for _, alpha := range []float64{0.5, 1, 2} {
				cfg := DefaultConfig(16)
				cfg.Policy, cfg.Alpha = pol, alpha
				r := newRule(cfg.withDefaults(), sharedCap, 4)
				for step := 0; step < 5000; step++ {
					free := rng.Intn(sharedCap + 1)
					n := rng.Intn(sharedCap - free + 1) // a queue holds at most the pool's occupancy
					size := 1 + rng.Intn(9066)
					if th := r.limit(free); th < 0 {
						t.Fatalf("α=%g: limit(%d) = %d < 0", alpha, free, th)
					}
					if size > free || !r.admits(n+size, free) {
						continue
					}
					n2, size2 := rng.Intn(n+1), 1+rng.Intn(size)
					free2 := free + rng.Intn(sharedCap-free-n2+1)
					if !r.admits(n2+size2, free2) {
						t.Fatalf("α=%g: admits (n %d, size %d, free %d) but not (n %d, size %d, free %d)",
							alpha, n, size, free, n2, size2, free2)
					}
				}
			}
		})
	}
}

// TestPolicyHooksZeroAlloc pins the per-call allocation count of every
// policy's admission and release at zero — the switch's zero-alloc
// forwarding guarantee depends on it. It drives the hooks directly, one
// queue's admission test and pool charge, its release, and the limit and
// occupancy reads, without the FIFO and drain path around them.
func TestPolicyHooksZeroAlloc(t *testing.T) {
	for _, pol := range KnownPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			_, sw := newPolicySwitch(pol, 16)
			q := sw.queues[2]
			admitted := 0
			if a := testing.AllocsPerRun(200, func() {
				if sw.admit(q, 4096) {
					admitted++
					sw.used[q.quadrant] -= 4096
				}
				_ = sw.rule.admits(q.sharedUsed+4096, sw.SharedCap())
				_ = sw.Threshold(2)
				_ = sw.SharedUsed(q.quadrant)
			}); a != 0 {
				t.Errorf("policy hooks allocate %.2f objects per cycle, want 0", a)
			}
			if admitted == 0 {
				t.Fatal("the rule admitted nothing into an empty pool")
			}
			if used := sw.SharedUsed(q.quadrant); used != 0 {
				t.Fatalf("pool holds %d bytes after every charge was released", used)
			}
		})
	}
}

// TestPolicyThresholdResponds checks each policy's limit moves the right way
// as the pool fills: DT, complete sharing and ABM shrink a queue's limit when
// another queue of its quadrant takes shared bytes; static and BShare quotas
// stand still.
func TestPolicyThresholdResponds(t *testing.T) {
	for _, pol := range KnownPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			eng, sw := newPolicySwitch(pol, 16)
			before := sw.Threshold(0)
			// Port 4 shares port 0's quadrant; it soaks up what its policy
			// lets it, up to half the pool.
			for sw.SharedUsed(0) < sw.SharedCap()/2 && sw.TotalDiscards == 0 {
				sw.ForwardFromFabric(4, dataSeg(4096, 4))
			}
			if sw.SharedUsed(0) == 0 {
				t.Fatal("port 4 took nothing from the shared pool")
			}
			after := sw.Threshold(0)
			switch pol {
			case PolicyStatic, PolicyBShare:
				if after != before {
					t.Errorf("quota moved under pool pressure: %d -> %d", before, after)
				}
			default:
				if after >= before {
					t.Errorf("threshold did not shrink as the pool filled: %d -> %d", before, after)
				}
			}
			eng.Run()
		})
	}
}
