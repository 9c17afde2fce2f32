package fleet

import "testing"

// goldenSmallDigest is the sha256 of json(Racks)+json(Runs) for
// SmallConfig() at Workers=2, verified identical to the dataset produced
// before the hot-path memory overhaul (segment pooling, pooled events, timer
// handles). The overhaul is required to be behavior-preserving: same seed,
// byte-identical dataset. Workers is pinned because the default (GOMAXPROCS)
// is machine-dependent, though the digest itself is worker-count independent.
const goldenSmallDigest = "9808ac8afa7c492918e3efb633a89101f5f00d30c1f978a220b411933fa04d96"

// goldenSmallHostStackDigest is the same fingerprint with the host-stack
// latency tap armed beside Millisampler: its histograms and per-core virtual
// soft-irq queue. The small preset has no soft-irq stalls and its servers
// send only ACKs, so every span it sees before the soft-irq wait is under
// 1 µs; TestInjectDeliveryTap and TestSendEgressTap in internal/core pin the
// ingress and egress span sources.
const goldenSmallHostStackDigest = "1053e8e8d065f9c8966c4f707998240d58a8d3fe40ad4434b7a758f4504482e7"

// goldenSmallHybridDigest is the same fingerprint at hybrid fidelity, with
// the configuration of the benchmark's gen-hybrid workload (genConfig in
// benchmark/gen.go: SmallConfig, KeepExamples off; the digest does not depend
// on the worker count). It is a second copy of that workload's "hybrid/5"
// pin, so tier-1 recomputes it, not only a full benchmark run.
const goldenSmallHybridDigest = "5851a0f5e5346e522fa06803aa005547a4dad67c711cc1cf335599dbff4babd0"

// TestGenerateSmallGoldenDigest regenerates the small-preset collection day
// and compares its determinism fingerprint against the pre-optimization
// golden value. Any drift means a hot-path change altered simulation
// behavior rather than just its cost.
func TestGenerateSmallGoldenDigest(t *testing.T) {
	checkSmallGolden(t, goldenSmallDigest, func(*Config) {})
}

// TestGenerateSmallHostStackGoldenDigest pins the instrumented dataset: any
// drift means a change moved what the host-stack tap records.
func TestGenerateSmallHostStackGoldenDigest(t *testing.T) {
	checkSmallGolden(t, goldenSmallHostStackDigest, func(c *Config) { c.HostStack = true })
}

// TestGenerateSmallHybridGoldenDigest pins the fluid fast path: any drift
// means a change moved what a hybrid generation records.
func TestGenerateSmallHybridGoldenDigest(t *testing.T) {
	checkSmallGolden(t, goldenSmallHybridDigest, func(c *Config) {
		c.Fidelity = FidelityHybrid
		c.KeepExamples = false
	})
}

// checkSmallGolden generates SmallConfig, on two workers and changed by set,
// and compares its digest with want.
func checkSmallGolden(t *testing.T, want string, set func(*Config)) {
	t.Helper()
	if testing.Short() {
		t.Skip("golden regeneration takes several seconds")
	}
	cfg := SmallConfig()
	cfg.Workers = 2
	set(&cfg)
	ds, err := collect(cfg)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	got, err := ds.Digest()
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	if got != want {
		t.Fatalf("dataset digest drifted:\n got  %s\n want %s\nthe change altered simulation behavior", got, want)
	}
}
