package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fleet"
)

// The small-preset store is generated once per test binary; TestMain removes
// it.
var (
	dsOnce sync.Once
	dsDir  string
	dsVal  *dataset.Reader
	dsErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if dsDir != "" {
		os.RemoveAll(dsDir)
	}
	os.Exit(code)
}

func testDataset(t *testing.T) *dataset.Reader {
	t.Helper()
	dsOnce.Do(func() {
		if dsDir, dsErr = os.MkdirTemp("", "experiments-fixture-"); dsErr != nil {
			return
		}
		dsVal, dsErr = dataset.GenerateDir(context.Background(), dsDir, fleet.SmallConfig(), nil)
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

// smallReportGolden is the sha256 of every RunAll result's Render over the
// small preset, measured from the in-memory dataset path before it was
// retired: the sharded store must keep producing the report that path did.
const smallReportGolden = "f1b1a0ace8fe67a4611f41dfe02d56fc74b6f13d4d6f286ffe022d5d051d834d"

// The markdown and JSON renders carry what Render does not print: the
// plotted curves, their names and their axis labels. A refactor that swaps
// two curves leaves the text report as it was and changes these.
const (
	smallMarkdownGolden = "f22a213ef8dcadc705d3fae4bb845eeeb7af801f1af9cf2ed0088f69c121df68"
	smallJSONGolden     = "65f4db851dcb2e7988fc128f49ff543c1f8c6ad1596c1741a7734bc0205968ba"
)

// TestSmallReportGolden pins the whole report — every figure and table the
// analyses derive from a generated, stored and re-read collection day — in
// each format it is served in.
func TestSmallReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	formats := []struct {
		name, want string
		write      func(w *bytes.Buffer, results []*Result) error
	}{
		{"text", smallReportGolden, func(w *bytes.Buffer, results []*Result) error {
			for _, r := range results {
				r.Render(w)
			}
			return nil
		}},
		{"markdown", smallMarkdownGolden, func(w *bytes.Buffer, results []*Result) error {
			for _, r := range results {
				r.RenderMarkdown(w)
			}
			return nil
		}},
		{"json", smallJSONGolden, func(w *bytes.Buffer, results []*Result) error {
			b, err := json.MarshalIndent(results, "", " ")
			w.Write(b)
			return err
		}},
	}
	render := func() []string {
		t.Helper()
		results, err := RunAll(testDataset(t))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(formats))
		for i, f := range formats {
			var buf bytes.Buffer
			if err := f.write(&buf, results); err != nil {
				t.Fatal(err)
			}
			out[i] = buf.String()
		}
		return out
	}
	reports := render()
	var again []string
	for i, f := range formats {
		report := reports[i]
		sum := sha256.Sum256([]byte(report))
		got := hex.EncodeToString(sum[:])
		if got == f.want {
			continue
		}
		// Render once more: a first differing line means the report is not
		// even stable; none means it is stable and has drifted from the pin.
		if again == nil {
			again = render()
		}
		rl, al := strings.Split(report, "\n"), strings.Split(again[i], "\n")
		stable := true
		for j := 0; j < len(rl) && j < len(al); j++ {
			if rl[j] != al[j] {
				t.Errorf("%s report is not reproducible: renders diverge at line %d:\nfirst:  %q\nsecond: %q", f.name, j+1, rl[j], al[j])
				stable = false
				break
			}
		}
		if stable {
			t.Errorf("small %s report sha256 %s, want %s (%d bytes, stable across renders)", f.name, got, f.want, len(report))
		}
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
	for _, m := range ds.RackMetas() {
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
	lossy, bursts := map[fleet.Class]int{}, map[fleet.Class]int{}
	if _, err := ds.EachRun(func(run *fleet.RunSummary, c fleet.Class) error {
		for _, b := range run.Bursts {
			total++
			if b.MaxContention >= 2 {
				contended++
			}
			bursts[c]++
			if b.Lossy {
				lossy[c]++
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
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
		if bursts[c] == 0 {
			return 0
		}
		return float64(lossy[c]) / float64(bursts[c])
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
