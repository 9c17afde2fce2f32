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

// emptyStore is a store with the given racks and no runs.
type emptyStore struct {
	*dataset.Reader
	metas []fleet.RackMeta
}

func (e emptyStore) RackMetas() []fleet.RackMeta { return e.metas }

func (emptyStore) EachRun(func(*fleet.RunSummary, fleet.Class) error) (int, error) { return 0, nil }

// TestRunAllKeepsGoingPastRefusals: on two racks per region over two hours,
// fig17 has too few rack classes and refuses; the report still holds every
// experiment, fig17 as its id with the refusal as a note. So does a store
// with no racks, or with racks and no runs. A walk that fails —
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
	// A store with no racks, or with racks and no runs: fig11 ranks racks
	// and fig12 their days, so each refuses the shape it cannot rank.
	for _, tc := range []struct {
		src  emptyStore
		want map[string]string
	}{
		{emptyStore{ds, nil}, map[string]string{"fig11": "no racks in RegA", "fig12": "no runs in RegA"}},
		{emptyStore{ds, ds.RackMetas()}, map[string]string{"fig12": "no runs in RegA"}},
	} {
		results, err := RunAll(tc.src)
		if err != nil {
			t.Fatalf("%d racks, no runs: %v", len(tc.src.metas), err)
		}
		for _, r := range results {
			if want, ok := tc.want[r.ID]; ok && (r.Title != "refused" || fmt.Sprint(r.Notes) != "["+want+"]") {
				t.Errorf("%d racks, no runs: %s is %q %q, want refused %q", len(tc.src.metas), r.ID, r.Title, r.Notes, want)
			}
		}
	}
	for _, cause := range []error{dataset.ErrCorruptShard, context.Canceled, context.DeadlineExceeded} {
		if _, err := RunAll(failingWalks{ds, fmt.Errorf("walk: %w", cause)}); !errors.Is(err, cause) {
			t.Errorf("a walk failing with %v: RunAll returned %v", cause, err)
		}
	}
}
