package experiments

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fleet"
)

// failingWalks fails every dataset walk with err.
type failingWalks struct {
	*dataset.Reader
	err error
}

func (f failingWalks) EachRun(func(*fleet.RunSummary, fleet.Class) error) (int, error) {
	return 0, f.err
}

// TestRunAllKeepsGoingPastRefusals: on two racks per region over two hours,
// fig17 has too few rack classes and refuses; the report still holds every
// experiment, fig17 as its id with the refusal as a note. A walk that fails —
// a corrupt shard, or a walk cancelled or past its deadline — aborts the
// report instead, so a server never caches a report of a broken store.
func TestRunAllKeepsGoingPastRefusals(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	cfg := fleet.SmallConfig()
	cfg.RacksPerRegion, cfg.ServersPerRack, cfg.Hours, cfg.Buckets, cfg.Seed = 2, 24, []int{0, 6}, 500, 7
	ds, err := dataset.GenerateDir(context.Background(), t.TempDir(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunAll(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(IDs()) {
		t.Fatalf("%d results for %d experiments", len(results), len(IDs()))
	}
	var refused []string
	for i, r := range results {
		if r.ID != IDs()[i] {
			t.Errorf("result %d has id %q, want %q", i, r.ID, IDs()[i])
		}
		if r.Title == "refused" {
			refused = append(refused, r.ID)
			if _, err := Run(r.ID, ds); len(r.Notes) != 1 || err == nil || r.Notes[0] != err.Error() {
				t.Errorf("%s: notes %q, want the refusal %v", r.ID, r.Notes, err)
			}
		}
	}
	if fmt.Sprint(refused) != "[fig17]" {
		t.Errorf("refused: %v, want [fig17]", refused)
	}
	for _, cause := range []error{dataset.ErrCorruptShard, context.Canceled, context.DeadlineExceeded} {
		if _, err := RunAll(failingWalks{ds, fmt.Errorf("walk: %w", cause)}); !errors.Is(err, cause) {
			t.Errorf("a walk failing with %v: RunAll returned %v", cause, err)
		}
	}
}
