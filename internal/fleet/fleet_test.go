package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestDiurnalFactorShape(t *testing.T) {
	// Peak within hours 4-10, trough elsewhere, always positive.
	peak := DiurnalFactor(7)
	for h := 0; h < 24; h++ {
		f := DiurnalFactor(h)
		if f <= 0 {
			t.Fatalf("factor at hour %d = %v", h, f)
		}
		if f > peak {
			t.Errorf("hour %d factor %v exceeds hour-7 peak %v", h, f, peak)
		}
	}
	if DiurnalFactor(7) < DiurnalFactor(0)*1.2 {
		t.Error("peak-to-trough ratio under 1.2; diurnal signal too weak")
	}
	if DiurnalFactor(31) != DiurnalFactor(7) {
		t.Error("hours do not wrap")
	}
}

func TestBuildRacksPlacementShape(t *testing.T) {
	cfg := DefaultConfig()
	racks := BuildRacks(cfg)
	if len(racks) != 2*cfg.RacksPerRegion {
		t.Fatalf("built %d racks", len(racks))
	}
	var mlRacks, regA, regB int
	for _, r := range racks {
		if len(r.Tasks) != cfg.ServersPerRack || len(r.Profiles) != cfg.ServersPerRack {
			t.Fatalf("rack %s/%d placement incomplete", r.Region, r.ID)
		}
		switch r.Region {
		case RegA:
			regA++
			if r.MLDominated {
				mlRacks++
			}
		case RegB:
			regB++
			if r.Intensity <= 0 {
				t.Error("RegB rack without intensity")
			}
		}
	}
	if regA != cfg.RacksPerRegion || regB != cfg.RacksPerRegion {
		t.Errorf("regions %d/%d", regA, regB)
	}
	wantML := int(cfg.MLRackFraction*float64(cfg.RacksPerRegion) + 0.5)
	if mlRacks != wantML {
		t.Errorf("ML racks %d, want %d", mlRacks, wantML)
	}
}

func TestMLDominatedRacksRunFewerTasks(t *testing.T) {
	// The paper's Fig 10/11: ML racks run fewer distinct tasks and have a
	// dominant task on 60-100% of servers.
	racks := BuildRacks(DefaultConfig())
	var mlTasks, typTasks []float64
	for _, r := range racks {
		if r.Region != RegA {
			continue
		}
		if r.MLDominated {
			mlTasks = append(mlTasks, float64(r.DistinctTasks()))
			if s := r.DominantTaskShare(); s < 0.55 || s > 1.0 {
				t.Errorf("ML rack dominant share %v outside [0.55,1]", s)
			}
			if r.Tasks[0].Service != workload.MLTrain.Name {
				t.Error("ML rack's dominant task is not mltrain")
			}
		} else {
			typTasks = append(typTasks, float64(r.DistinctTasks()))
		}
	}
	if mean(mlTasks) >= mean(typTasks) {
		t.Errorf("ML racks run %v tasks on average vs typical %v; want fewer",
			mean(mlTasks), mean(typTasks))
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestBuildRacksDeterministic(t *testing.T) {
	a := BuildRacks(DefaultConfig())
	b := BuildRacks(DefaultConfig())
	for i := range a {
		if a[i].Seed != b[i].Seed || a[i].DistinctTasks() != b[i].DistinctTasks() {
			t.Fatalf("rack %d differs across identical builds", i)
		}
	}
}

// rackSlot receives one rack's results; slots are laid out in BuildRacks
// order, so assembly is independent of completion order.
type rackSlot struct {
	meta RackMeta
	runs []RunSummary
}

func (s *rackSlot) Run(r RunSummary) error  { s.runs = append(s.runs, r); return nil }
func (s *rackSlot) Commit(m RackMeta) error { s.meta = m; return nil }

// collect assembles a GenerateStream in memory and classifies it: the
// reference these tests digest and measure, untouched by the shard codec.
func collect(cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	specs := BuildRacks(cfg)
	slots := make([]rackSlot, len(specs))
	idx := make(map[RackMeta]int, len(specs))
	for i := range specs {
		idx[RackMeta{Region: specs[i].Region, ID: specs[i].ID}] = i
	}
	err := GenerateStream(context.Background(), cfg, StreamOpts{
		Begin: func(m RackMeta) (RackSink, error) {
			return &slots[idx[RackMeta{Region: m.Region, ID: m.ID}]], nil
		},
	})
	if err != nil {
		return nil, err
	}
	ds := &Dataset{Cfg: cfg}
	for i := range slots {
		ds.Racks = append(ds.Racks, slots[i].meta)
		ds.Runs = append(ds.Runs, slots[i].runs...)
	}
	ClassifyMetas(ds.Racks)
	return ds, nil
}

// errSink is the error a failSink fails with.
var errSink = errors.New("sink failed")

// failSink records its rack's calls into log and fails at the call failAt
// names ("Run" or "Commit"; "" fails neither).
type failSink struct {
	rack   int
	failAt string
	log    *[]string
}

func (s *failSink) Run(RunSummary) error {
	*s.log = append(*s.log, fmt.Sprintf("run %d", s.rack))
	if s.failAt == "Run" {
		return errSink
	}
	return nil
}

func (s *failSink) Commit(RackMeta) error {
	*s.log = append(*s.log, fmt.Sprintf("commit %d", s.rack))
	if s.failAt == "Commit" {
		return errSink
	}
	return nil
}

// TestSinkErrorAbortsGeneration checks that a sink error on the second rack
// ends the generation with that error: the failed rack's hours stop, a rack
// whose Run failed is never committed, and no third rack begins.
func TestSinkErrorAbortsGeneration(t *testing.T) {
	cfg := Config{Seed: 1, RacksPerRegion: 2, ServersPerRack: 4, Hours: []int{2, 6},
		Buckets: 50, Fidelity: FidelityHybrid, Workers: 1}
	for _, tc := range []struct {
		failAt string
		want   []string
	}{
		{"Run", []string{"begin 0", "run 0", "run 0", "commit 0", "begin 1", "run 1"}},
		{"Commit", []string{"begin 0", "run 0", "run 0", "commit 0", "begin 1", "run 1", "run 1", "commit 1"}},
	} {
		t.Run(tc.failAt, func(t *testing.T) {
			var log []string
			begun := 0
			err := GenerateStream(context.Background(), cfg, StreamOpts{
				Begin: func(RackMeta) (RackSink, error) {
					log = append(log, fmt.Sprintf("begin %d", begun))
					sink := &failSink{rack: begun, log: &log}
					if begun == 1 {
						sink.failAt = tc.failAt
					}
					begun++
					return sink, nil
				},
			})
			if !errors.Is(err, errSink) {
				t.Fatalf("GenerateStream = %v, want the sink's error", err)
			}
			if got := strings.Join(log, ", "); got != strings.Join(tc.want, ", ") {
				t.Errorf("calls = %s\nwant    %s", got, strings.Join(tc.want, ", "))
			}
		})
	}
}

// TestBusyPick pins the busy-hour rule both the dataset and the sweep
// baseline classify racks by: the run nearest BusyHour, the first in
// schedule order on a tie, a failed run (zero average) competing like any.
func TestBusyPick(t *testing.T) {
	for _, tc := range []struct {
		name  string
		hours []int
		avgs  []float64
		want  float64
	}{
		{"no runs", nil, nil, 0},
		{"nearest wins", []int{14, 5, 0}, []float64{1, 2, 3}, 2},
		{"tie keeps the first", []int{4, 8}, []float64{1, 2}, 1},
		{"schedule order decides a tie", []int{8, 4}, []float64{2, 1}, 2},
		{"failed hour competes", []int{2, 6}, []float64{3, 0}, 0},
	} {
		var b BusyPick
		for i, h := range tc.hours {
			b.Add(h, tc.avgs[i])
		}
		if got := b.Avg(); got != tc.want {
			t.Errorf("%s: hours %v avgs %v picked %v, want %v", tc.name, tc.hours, tc.avgs, got, tc.want)
		}
	}
}

// testDataset is generated once and shared; small config keeps this fast.
var testDS *Dataset

func getTestDataset(t *testing.T) *Dataset {
	t.Helper()
	if testDS != nil {
		return testDS
	}
	cfg := SmallConfig()
	ds, err := collect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	testDS = ds
	return ds
}

func TestGenerateDatasetShape(t *testing.T) {
	ds := getTestDataset(t)
	cfg := ds.Cfg.withDefaults()
	wantRuns := 2 * cfg.RacksPerRegion * len(cfg.Hours)
	if len(ds.Runs) != wantRuns {
		t.Fatalf("runs = %d, want %d", len(ds.Runs), wantRuns)
	}
	if len(ds.Racks) != 2*cfg.RacksPerRegion {
		t.Fatalf("racks = %d", len(ds.Racks))
	}
	for i := range ds.Runs {
		r := &ds.Runs[i]
		if r.Samples <= 0 || r.Samples > cfg.Buckets {
			t.Errorf("run %d samples = %d", i, r.Samples)
		}
		if len(r.ServerRuns) != cfg.ServersPerRack {
			t.Errorf("run %d server runs = %d", i, len(r.ServerRuns))
		}
		if r.Switch.EnqueuedBytes <= 0 {
			t.Errorf("run %d saw no switch traffic", i)
		}
	}
}

func TestClassificationTopQuintile(t *testing.T) {
	ds := getTestDataset(t)
	var high, typical int
	for _, m := range ds.Racks {
		if m.Region != RegA {
			if m.Class != ClassB {
				t.Errorf("RegB rack classified %v", m.Class)
			}
			continue
		}
		switch m.Class {
		case ClassAHigh:
			high++
		case ClassATypical:
			typical++
		}
	}
	if high != ds.Cfg.withDefaults().RacksPerRegion/5 {
		t.Errorf("high racks = %d", high)
	}
	// High racks must have higher measured contention than typical racks.
	var hMin, tMax float64 = math.Inf(1), 0
	for _, m := range ds.Racks {
		if m.Region != RegA {
			continue
		}
		if m.Class == ClassAHigh && m.BusyAvgContention < hMin {
			hMin = m.BusyAvgContention
		}
		if m.Class == ClassATypical && m.BusyAvgContention > tMax {
			tMax = m.BusyAvgContention
		}
	}
	if hMin < tMax {
		t.Errorf("classification not a contention quantile: high min %v < typical max %v", hMin, tMax)
	}
}

func TestMLRacksMeasureHigher(t *testing.T) {
	// Placement ground truth should align with measured classification:
	// ML-dominated racks should dominate the High class.
	ds := getTestDataset(t)
	var mlHigh, mlTotal int
	for _, m := range ds.Racks {
		if m.Region != RegA || !m.MLDominated {
			continue
		}
		mlTotal++
		if m.Class == ClassAHigh {
			mlHigh++
		}
	}
	if mlTotal == 0 {
		t.Skip("no ML racks in small config")
	}
	if mlHigh == 0 {
		t.Error("no ML-dominated rack measured as high contention")
	}
}

func TestSimulateRunDeterministic(t *testing.T) {
	cfg := SmallConfig()
	spec, ok := FindRack(cfg, RegA, 0)
	if !ok {
		t.Fatal("rack not found")
	}
	a, da, err := SimulateRunFull(cfg, spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, db, err := SimulateRunFull(cfg, spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.Samples != b.Samples || da != db {
		t.Fatalf("rerun differs: %d/%d samples, %+v vs %+v", a.Samples, b.Samples, da, db)
	}
	for s := range a.Servers {
		for i := range a.Servers[s].In {
			if a.Servers[s].In[i] != b.Servers[s].In[i] {
				t.Fatalf("series differ at server %d sample %d", s, i)
			}
		}
	}
}

func TestSat16Saturates(t *testing.T) {
	cases := []struct {
		in   int
		want int16
	}{
		{0, 0}, {42, 42}, {32767, 32767},
		{32768, 32767}, {100000, 32767}, {-1, -1}, {-40000, -32768},
	}
	for _, c := range cases {
		if got := sat16(c.in); got != c.want {
			t.Errorf("sat16(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestConfigValidateBounds(t *testing.T) {
	ok := SmallConfig()
	if err := ok.Validate(); err != nil {
		t.Errorf("small config invalid: %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config (all defaults) invalid: %v", err)
	}
	big := SmallConfig()
	big.ServersPerRack = 40000
	if err := big.Validate(); err == nil {
		t.Error("ServersPerRack 40000 passed validation; BurstRec stores server as int16")
	}
	big = SmallConfig()
	big.Buckets = 70000
	if err := big.Validate(); err == nil {
		t.Error("Buckets 70000 passed validation; BurstRec stores burst length as int16")
	}
	big = SmallConfig()
	big.Hours = []int{25}
	if err := big.Validate(); err == nil {
		t.Error("hour 25 passed validation")
	}
	big = SmallConfig()
	big.Hours = []int{6, 14, 6}
	if err := big.Validate(); err == nil {
		t.Error("hours 6,14,6 passed validation; hour 6 would be generated twice")
	}
}
