package experiments

import (
	"bytes"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fleet"
)

var (
	dsOnce sync.Once
	dsVal  *fleet.Dataset
	dsErr  error
)

func testDataset(t *testing.T) *fleet.Dataset {
	t.Helper()
	dsOnce.Do(func() {
		dsVal, dsErr = fleet.Generate(fleet.SmallConfig())
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsVal
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"sec6",
		"fig16alt", "fig17", "fig18", "fig19", "tab1", "tab2",
		"hoststack",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d entries, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99", nil); err == nil {
		t.Error("unknown experiment did not error")
	}
}

func TestFig01NoDatasetNeeded(t *testing.T) {
	r, err := Fig01QueueShare(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 11 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// S=1, alpha=1 -> 0.5 (column 3).
	if r.Rows[1][3] != "0.5" {
		t.Errorf("T(alpha=1, S=1) cell = %q", r.Rows[1][3])
	}
}

func TestValidationFigsStandalone(t *testing.T) {
	// fig3 and fig4 build their own rigs and must work without a dataset.
	r3, err := Fig03MulticastSync(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Rows) != 8 {
		t.Errorf("fig3 rows = %d", len(r3.Rows))
	}
	foundAligned := false
	for _, n := range r3.Notes {
		if strings.Contains(n, "aligned") {
			foundAligned = true
		}
	}
	if !foundAligned {
		t.Error("fig3 missing alignment note")
	}

	r4, err := Fig04BurstIdent(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(r4.Notes, " "), "measured max simultaneous bursty servers: 5") {
		t.Errorf("fig4 did not identify 5 bursty servers: %v", r4.Notes)
	}
}

func TestRunAllOnSmallDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	ds := testDataset(t)
	results, err := RunAll(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(IDs()) {
		t.Fatalf("results = %d", len(results))
	}
	var buf bytes.Buffer
	for _, r := range results {
		if r.ID == "" || r.Title == "" {
			t.Errorf("result missing metadata: %+v", r)
		}
		if len(r.Rows) == 0 {
			t.Errorf("%s produced no rows", r.ID)
		}
		r.Render(&buf)
	}
	out := buf.String()
	for _, id := range IDs() {
		if !strings.Contains(out, "== "+id+":") {
			t.Errorf("render missing %s", id)
		}
	}
}

// TestShardedMatchesInMemory proves the streaming sharded reader and the
// in-memory dataset are interchangeable sources: every experiment must render
// identically from both.
func TestShardedMatchesInMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	ds := testDataset(t)
	dir := filepath.Join(t.TempDir(), "ds")
	if err := dataset.Write(dir, ds); err != nil {
		t.Fatal(err)
	}
	rd, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	render := func(src Source) string {
		t.Helper()
		results, err := RunAll(src)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, r := range results {
			r.Render(&buf)
		}
		return buf.String()
	}
	legacy := render(ds)
	sharded := render(rd)
	if legacy != sharded {
		// Find the first differing line for a readable failure.
		ll, sl := strings.Split(legacy, "\n"), strings.Split(sharded, "\n")
		for i := 0; i < len(ll) && i < len(sl); i++ {
			if ll[i] != sl[i] {
				t.Fatalf("sharded output diverges at line %d:\nlegacy:  %q\nsharded: %q", i+1, ll[i], sl[i])
			}
		}
		t.Fatalf("sharded output length %d != legacy %d", len(sharded), len(legacy))
	}
}

func TestShapeChecks(t *testing.T) {
	// The headline qualitative claims must hold on the generated dataset.
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	ds := testDataset(t)

	// RegA-High racks show markedly higher contention than RegA-Typical.
	var hi, lo []float64
	for _, m := range ds.Racks {
		switch m.Class {
		case fleet.ClassAHigh:
			hi = append(hi, m.BusyAvgContention)
		case fleet.ClassATypical:
			lo = append(lo, m.BusyAvgContention)
		}
	}
	if len(hi) == 0 || len(lo) == 0 {
		t.Fatal("classes missing")
	}
	if mean(hi) < 2*mean(lo) {
		t.Errorf("High mean contention %.2f not well above Typical %.2f", mean(hi), mean(lo))
	}

	// Most bursts see contention (paper: 91.4% overall).
	var contended, total int
	for i := range ds.Runs {
		for _, b := range ds.Runs[i].Bursts {
			total++
			if b.MaxContention >= 2 {
				contended++
			}
		}
	}
	if total == 0 {
		t.Fatal("no bursts")
	}
	if frac := float64(contended) / float64(total); frac < 0.5 {
		t.Errorf("only %.1f%% of bursts contended; paper reports most bursts contended", 100*frac)
	}

	// High-contention class must not be lossier than typical (the paper's
	// surprising inversion).
	lossFrac := func(c fleet.Class) float64 {
		var lossy, n int
		for _, run := range ds.RunsIn(c) {
			for _, b := range run.Bursts {
				n++
				if b.Lossy {
					lossy++
				}
			}
		}
		if n == 0 {
			return 0
		}
		return float64(lossy) / float64(n)
	}
	if lt, lh := lossFrac(fleet.ClassATypical), lossFrac(fleet.ClassAHigh); lh > lt {
		t.Errorf("RegA-High lossy %.3f%% exceeds RegA-Typical %.3f%%; paper finds the opposite", 100*lh, 100*lt)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestRenderFormat(t *testing.T) {
	r := &Result{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.Notef("n=%d", 3)
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: t ==", "a", "bb", "note: n=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in %q", want, out)
		}
	}
}
