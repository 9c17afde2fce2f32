package distrib

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// tinyHybridConfig is a one-rack hybrid-fidelity generation small enough for
// a unit test.
func tinyHybridConfig() fleet.Config {
	return fleet.Config{
		Seed:           7,
		RacksPerRegion: 1,
		ServersPerRack: 8,
		Hours:          []int{6},
		Buckets:        150,
		Interval:       sim.Millisecond,
		Fidelity:       fleet.FidelityHybrid,
	}
}

// TestWorkerHonorsFidelity pins the distributed contract for the fidelity
// knob: a shard unit carries the fidelity in its config, the worker computes
// it on the hybrid engine, and the payload's shard is byte-identical to the
// one a local generation writes for the same rack — so a distributed dataset
// and a local one are interchangeable and a re-led shard commits
// byte-identically.
func TestWorkerHonorsFidelity(t *testing.T) {
	unit := &WorkUnit{
		ID:     "shard:RegA/0",
		Kind:   KindShard,
		Config: tinyHybridConfig(),
		Region: fleet.RegA,
		RackID: 0,
	}
	w := &Worker{}
	p1, err := w.compute(context.Background(), unit)
	if err != nil {
		t.Fatalf("hybrid: %v", err)
	}
	var sp dataset.ShardPayload
	if err := json.Unmarshal(p1, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Data) == 0 {
		t.Fatal("empty shard payload")
	}
	local, err := dataset.GenerateDir(context.Background(), t.TempDir(), unit.Config, nil)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(local.Shards(), func(e dataset.ShardEntry) bool { return e.Region == unit.Region && e.ID == unit.RackID })
	if i < 0 {
		t.Fatalf("local generation has no shard %s/%d", unit.Region, unit.RackID)
	}
	sum := sha256.Sum256(sp.Data)
	if got, want := hex.EncodeToString(sum[:]), local.Shards()[i].Digest; got != want {
		t.Errorf("worker's hybrid shard sha256 %s, the local manifest's %s", got, want)
	}

	// The same unit at full fidelity must produce a different dataset (the
	// engines are distributionally, not byte, equivalent) — guarding against
	// the knob being silently dropped on the wire or in the worker.
	full := *unit
	full.Config.Fidelity = fleet.FidelityFull
	pf, err := w.compute(context.Background(), &full)
	if err != nil {
		t.Fatalf("full fidelity: %v", err)
	}
	if bytes.Equal(p1, pf) {
		t.Error("hybrid and full payloads identical — fidelity knob ignored")
	}
}
