package integration

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// degradedCollectionRun builds a 10-server rack with perfect clocks and a
// deterministic direct-injection traffic schedule (bypassing the shared
// switch, so each host's series is independent of the others), runs one
// synchronized collection, and optionally injects faults: two crashed hosts
// (one rebooting mid-window, one down through the harvest) and a lossy
// control plane.
func degradedCollectionRun(t *testing.T, faults bool) *core.SyncRun {
	t.Helper()
	const servers = 10
	controlFailProb := 0.0
	if faults {
		controlFailProb = 0.10
	}
	rack := testbed.NewRack(testbed.RackConfig{
		Servers:         servers,
		Seed:            99,
		ClockModel:      clock.PerfectSyncModel(),
		ControlFailProb: controlFailProb,
	})

	ctrl := core.NewController(rack, core.Config{
		Interval: sim.Millisecond, Buckets: 200, CountFlows: true,
	})
	const at = 20 * sim.Millisecond
	if err := ctrl.Schedule(at); err != nil {
		t.Fatal(err)
	}

	// Per-host deterministic traffic: one segment per millisecond with a
	// host- and time-dependent size, covering the whole window.
	for i := 0; i < servers; i++ {
		h := rack.Servers[i]
		for tick := 0; tick < 199; tick++ {
			tt := at + sim.Millisecond + sim.Time(tick)*sim.Millisecond
			size := 600 + 90*i + 37*(tick%11)
			rack.Eng.At(tt, func() {
				h.Inject(&netsim.Segment{
					Flow: netsim.FlowKey{Src: 999, Dst: h.ID, SrcPort: 7, DstPort: 80},
					Size: size,
				})
			})
		}
	}

	if faults {
		// 20% of the rack degrades mid-run: host 0 crashes and reboots
		// (truncated data), host 1 crashes and stays down past the straggler
		// deadline (missing data).
		rack.Eng.At(150*sim.Millisecond, func() { rack.Servers[0].Crash(30 * sim.Millisecond) })
		rack.Eng.At(160*sim.Millisecond, func() { rack.Servers[1].Crash(10 * sim.Second) })
	}

	rack.Eng.RunUntil(ctrl.HarvestDeadline(at) + sim.Millisecond)
	if !ctrl.Done() {
		t.Fatal("harvest did not complete by the straggler deadline")
	}
	sr, err := ctrl.Result()
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

// TestDegradedCollectionTolerance is the robustness acceptance case: with
// 20% of the rack crashing mid-run and 10% of harvest RPCs failing, the
// controller still returns an aligned SyncRun whose per-host status flags
// exactly the degraded hosts — and every healthy host's aligned series is
// byte-identical to a failure-free run over the same window.
func TestDegradedCollectionTolerance(t *testing.T) {
	baseline := degradedCollectionRun(t, false)
	faulty := degradedCollectionRun(t, true)

	if !baseline.Health.AllOK() {
		t.Fatalf("baseline health = %v, want all ok", baseline.Health)
	}
	h := faulty.Health
	if h.OK != 8 || h.Truncated != 1 || h.Missing != 1 || h.Unsynced != 0 {
		t.Fatalf("faulty health = %v, want 8 ok / 1 truncated / 1 missing", h)
	}

	// Statuses flag exactly the degraded hosts.
	for i, srv := range faulty.Servers {
		want := core.StatusOK
		switch i {
		case 0:
			want = core.StatusTruncated
		case 1:
			want = core.StatusMissing
		}
		if srv.Status != want {
			t.Errorf("server %d status = %v, want %v", i, srv.Status, want)
		}
	}

	// The degraded hosts must not have shrunk the aligned window.
	if faulty.Samples != baseline.Samples || faulty.StartWall != baseline.StartWall {
		t.Fatalf("window changed: %d samples from %d vs %d samples from %d",
			faulty.Samples, faulty.StartWall, baseline.Samples, baseline.StartWall)
	}

	// Healthy hosts: byte-identical aligned series.
	for i := 2; i < len(faulty.Servers); i++ {
		fs, bs := &faulty.Servers[i], &baseline.Servers[i]
		for name, pair := range map[string][2][]float64{
			"in":     {fs.In, bs.In},
			"inRetx": {fs.InRetx, bs.InRetx},
			"conns":  {fs.Conns, bs.Conns},
		} {
			got, want := pair[0], pair[1]
			if len(got) != len(want) {
				t.Fatalf("server %d %s: length %d vs %d", i, name, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("server %d %s[%d] = %v, baseline %v", i, name, j, got[j], want[j])
				}
			}
		}
	}

	// The truncated host carries a valid prefix and zeros beyond it; the
	// missing host carries nothing.
	tv := faulty.Servers[0].Valid(faulty.Samples)
	if tv <= 0 || tv >= faulty.Samples {
		t.Errorf("truncated host valid = %d of %d, want a proper prefix", tv, faulty.Samples)
	}
	for j := 0; j < tv; j++ {
		if faulty.Servers[0].In[j] != baseline.Servers[0].In[j] {
			t.Fatalf("truncated host sample %d = %v, baseline %v",
				j, faulty.Servers[0].In[j], baseline.Servers[0].In[j])
		}
	}
	for j := tv; j < faulty.Samples; j++ {
		if faulty.Servers[0].In[j] != 0 {
			t.Fatalf("truncated host sample %d nonzero past valid prefix", j)
		}
	}
	if v := faulty.Servers[1].Valid(faulty.Samples); v != 0 {
		t.Errorf("missing host valid = %d, want 0", v)
	}

	// The analysis layer honors the degradation: missing hosts contribute
	// no server run statistics, healthy hosts match the baseline.
	fa := analysis.Analyze(faulty, analysis.DefaultOptions())
	ba := analysis.Analyze(baseline, analysis.DefaultOptions())
	if fa.Servers[1].ValidSamples != 0 || fa.Servers[1].NumBursts != 0 {
		t.Errorf("missing host analyzed as %+v", fa.Servers[1])
	}
	for i := 2; i < len(fa.Servers); i++ {
		if fa.Servers[i].NumBursts != ba.Servers[i].NumBursts {
			t.Errorf("server %d bursts %d vs baseline %d",
				i, fa.Servers[i].NumBursts, ba.Servers[i].NumBursts)
		}
		if fa.Servers[i].AvgUtil != ba.Servers[i].AvgUtil {
			t.Errorf("server %d avg util %v vs baseline %v",
				i, fa.Servers[i].AvgUtil, ba.Servers[i].AvgUtil)
		}
	}
}
