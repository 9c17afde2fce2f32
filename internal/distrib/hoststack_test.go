package distrib

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// decodeShardRuns unpacks a worker's JSON-wrapped shard payload down to its
// run records so a test can look inside what the worker produced.
func decodeShardRuns(t *testing.T, payload []byte) []fleet.RunSummary {
	t.Helper()
	var sp dataset.ShardPayload
	if err := json.Unmarshal(payload, &sp); err != nil {
		t.Fatalf("unmarshal shard payload: %v", err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(sp.Data))
	if err != nil {
		t.Fatalf("gunzip payload: %v", err)
	}
	dec := gob.NewDecoder(zr)
	var hdr struct {
		FormatVersion int
		Region        string
		ID            int
	}
	if err := dec.Decode(&hdr); err != nil {
		t.Fatalf("decode shard header: %v", err)
	}
	var runs []fleet.RunSummary
	for {
		var run fleet.RunSummary
		if err := dec.Decode(&run); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatalf("decode run: %v", err)
		}
		runs = append(runs, run)
	}
	return runs
}

// TestWorkerHonorsHostStack pins the distributed contract for the host-stack
// knob: a shard unit's config carries HostStack over the wire, and a worker
// computing that unit produces runs with HostStackRec series attached —
// guarding against the knob being silently dropped in the protocol or in
// the worker's generation path. With the knob off the same unit's runs must
// carry no series, so an uninstrumented distributed generation stays
// byte-identical to a local one.
func TestWorkerHonorsHostStack(t *testing.T) {
	cfg := fleet.Config{
		Seed:           11,
		RacksPerRegion: 1,
		ServersPerRack: 8,
		Hours:          []int{6},
		Buckets:        150,
		Interval:       sim.Millisecond,
		HostStack:      true,
	}
	unit := &WorkUnit{
		ID:     "shard:RegA/0",
		Kind:   KindShard,
		Config: cfg,
		Region: fleet.RegA,
		RackID: 0,
	}
	w := &Worker{}
	pOn, err := w.compute(context.Background(), unit)
	if err != nil {
		t.Fatalf("hoststack on: %v", err)
	}

	off := *unit
	off.Config.HostStack = false
	pOff, err := w.compute(context.Background(), &off)
	if err != nil {
		t.Fatalf("hoststack off: %v", err)
	}
	if bytes.Equal(pOn, pOff) {
		t.Error("instrumented and uninstrumented payloads identical — hoststack knob ignored")
	}

	instrumented := 0
	for _, run := range decodeShardRuns(t, pOn) {
		if run.Collected && run.HostStack != nil {
			instrumented++
			if run.HostStack.InSegs == 0 {
				t.Errorf("run %s/%d h%d: host-stack rec carries no ingress segments",
					run.Region, run.RackID, run.Hour)
			}
		}
	}
	if instrumented == 0 {
		t.Error("no collected run in the instrumented payload carries a HostStackRec")
	}
	for _, run := range decodeShardRuns(t, pOff) {
		if run.HostStack != nil {
			t.Errorf("run %s/%d h%d: uninstrumented payload carries a HostStackRec",
				run.Region, run.RackID, run.Hour)
		}
	}
}
