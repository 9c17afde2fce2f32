package fleet

import "testing"

// goldenSmallDigest is the sha256 of json(Racks)+json(Runs) for
// SmallConfig() at Workers=2, verified identical to the dataset produced
// before the hot-path memory overhaul (segment pooling, pooled events, timer
// handles). The overhaul is required to be behavior-preserving: same seed,
// byte-identical dataset. Workers is pinned because the default (GOMAXPROCS)
// is machine-dependent, though the digest itself is worker-count independent.
const goldenSmallDigest = "9808ac8afa7c492918e3efb633a89101f5f00d30c1f978a220b411933fa04d96"

// TestGenerateSmallGoldenDigest regenerates the small-preset collection day
// and compares its determinism fingerprint against the pre-optimization
// golden value. Any drift means a hot-path change altered simulation
// behavior rather than just its cost.
func TestGenerateSmallGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regeneration takes several seconds")
	}
	cfg := SmallConfig()
	cfg.Workers = 2
	ds, err := collect(cfg)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	got, err := ds.Digest()
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	if got != goldenSmallDigest {
		t.Fatalf("dataset digest drifted:\n got  %s\n want %s\nthe optimized hot path changed simulation behavior", got, goldenSmallDigest)
	}
}
