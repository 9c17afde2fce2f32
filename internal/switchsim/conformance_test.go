package switchsim

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestPolicyRegistryComplete is the enumeration gate behind Known, String,
// ParsePolicy, MarshalText, and New all agreeing on the policy set: the
// registry must be indexed by Policy value, fully populated, and free of name
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
		if e.build == nil {
			t.Errorf("registry[%d] (%v) has no constructor", i, e.policy)
		}
	}
	if got, want := len(KnownPolicies()), len(policyRegistry); got != want {
		t.Errorf("KnownPolicies() lists %d policies, registry has %d", got, want)
	}
}

// buildPolicy constructs one quadrant's policy instance the way New does.
func buildPolicy(t *testing.T, pol Policy, sharedCap, queuesPerQuad int) SharingPolicy {
	t.Helper()
	cfg := DefaultConfig(4 * queuesPerQuad)
	cfg.Policy = pol
	cfg = cfg.withDefaults()
	e := lookupPolicy(pol)
	if e == nil {
		t.Fatalf("lookupPolicy(%v) = nil", pol)
	}
	return e.build(cfg, sharedCap, queuesPerQuad)
}

// TestPolicyConformance drives every registered policy through a randomized
// admit/release schedule and checks the invariants the switch relies on:
// bytes are conserved, occupancy never exceeds Cap or goes negative,
// thresholds are never negative, and a fully released pool reads empty.
func TestPolicyConformance(t *testing.T) {
	const (
		sharedCap = 1 << 20
		queues    = 4
	)
	for _, pol := range KnownPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			p := buildPolicy(t, pol, sharedCap, queues)
			if p.Cap() != sharedCap {
				t.Fatalf("Cap() = %d, want %d", p.Cap(), sharedCap)
			}
			rng := sim.NewRNG(uint64(pol)*7 + 1)
			perQueue := make([]int, queues)
			var outstanding []int // admitted sizes, for releases
			now := sim.Time(0)
			ledger := 0
			for step := 0; step < 5000; step++ {
				now += sim.Time(rng.Intn(5000))
				qi := rng.Intn(queues)
				if th := p.Threshold(qi, now); th < 0 {
					t.Fatalf("step %d: Threshold(%d) = %d < 0", step, qi, th)
				}
				if rng.Intn(3) != 0 || len(outstanding) == 0 {
					size := 66 + rng.Intn(9000)
					if p.Admit(qi, perQueue[qi], size, now) {
						ledger += size
						perQueue[qi] += size
						outstanding = append(outstanding, size)
					}
				} else {
					i := rng.Intn(len(outstanding))
					size := outstanding[i]
					outstanding[i] = outstanding[len(outstanding)-1]
					outstanding = outstanding[:len(outstanding)-1]
					ledger -= size
					p.Release(size)
					p.OnDequeue(qi, size, rng.Intn(2)*size, now)
				}
				if got := p.Used(); got != ledger {
					t.Fatalf("step %d: Used() = %d, ledger says %d (bytes not conserved)", step, got, ledger)
				}
				if p.Used() > p.Cap() {
					t.Fatalf("step %d: Used() %d exceeds Cap() %d", step, p.Used(), p.Cap())
				}
			}
			for _, size := range outstanding {
				p.Release(size)
			}
			if p.Used() != 0 {
				t.Errorf("pool not empty after releasing everything: Used() = %d", p.Used())
			}
		})
	}
}

// TestPolicyThresholdResponds checks each policy's threshold moves the right
// way as the pool fills: DT, complete sharing, and ABM shrink a queue's limit
// when others consume the pool; static and BShare quotas stand still.
func TestPolicyThresholdResponds(t *testing.T) {
	const sharedCap = 1 << 20
	for _, pol := range KnownPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			p := buildPolicy(t, pol, sharedCap, 4)
			before := p.Threshold(0, 0)
			// Queue 1 soaks up half the pool in 4 KB steps.
			taken := 0
			for held := 0; taken < sharedCap/2; taken += 4096 {
				if !p.Admit(1, held, 4096, 0) {
					break
				}
				held += 4096
			}
			after := p.Threshold(0, 0)
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
		})
	}
}

// TestPolicyHooksZeroAlloc pins the per-call allocation count of every policy
// hook at zero — the switch's zero-alloc forwarding guarantee depends on it.
func TestPolicyHooksZeroAlloc(t *testing.T) {
	for _, pol := range KnownPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			p := buildPolicy(t, pol, 1<<20, 4)
			now := sim.Time(0)
			if a := testing.AllocsPerRun(200, func() {
				now += sim.Microsecond
				if p.Admit(2, 0, 4096, now) {
					p.Release(4096)
				}
				p.OnDequeue(2, 4096, 0, now)
				_ = p.Threshold(2, now)
				_ = p.Used()
			}); a != 0 {
				t.Errorf("policy hooks allocate %.2f objects per cycle, want 0", a)
			}
		})
	}
}

// TestABMPenalizesSlowDrain exercises the one behavior separating ABM from DT:
// a queue observed draining below line rate gets a proportionally smaller
// threshold, while a line-rate queue keeps DT's.
func TestABMPenalizesSlowDrain(t *testing.T) {
	p := buildPolicy(t, PolicyABM, 1<<20, 4).(*abmPolicy)

	lineRate := float64(netsim.DefaultServerRateBps)
	segTx := sim.Time(float64(9000*8) / lineRate * float64(sim.Second))

	// Queue 0 dequeues 9 KB segments back to back at line rate; queue 1
	// dequeues one segment per ten of queue 0's, mid-busy-period.
	now := sim.Time(0)
	for i := 0; i < 200; i++ {
		for j := 0; j < 10; j++ {
			now += segTx
			p.OnDequeue(0, 9000, 1, now)
		}
		p.OnDequeue(1, 9000, 1, now)
	}
	// Both queues saw dequeues at `now`; only their rates differ.
	fast, slow := p.Threshold(0, now), p.Threshold(1, now)
	if fast <= slow {
		t.Fatalf("slow queue threshold %d not below fast queue's %d", slow, fast)
	}
	if p.mu[0] < 0.9 {
		t.Errorf("line-rate queue mu = %.3f, want ~1", p.mu[0])
	}
	if p.mu[1] > 0.5 {
		t.Errorf("10x-slow queue mu = %.3f, want well under the line-rate queue", p.mu[1])
	}

	// An idle gap must not poison the estimate: after the queue drains empty
	// and sits idle, the next busy period's first dequeue is not a sample.
	muBefore := p.mu[0]
	p.OnDequeue(0, 9000, 0, now) // busy period ends
	now += sim.Second            // long idle gap
	p.OnDequeue(0, 9000, 1, now) // new busy period's first departure
	if p.mu[0] < muBefore/2 {
		t.Errorf("idle gap collapsed mu from %.3f to %.3f", muBefore, p.mu[0])
	}
}
