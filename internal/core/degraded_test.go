package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// degradedRack builds a rack with perfectly synchronized clocks and a
// deterministic per-host injection schedule: every host receives one sized
// segment per millisecond over [from, to).
func degradedRack(servers int, controlFailProb float64, seed uint64) *testbed.Rack {
	return testbed.NewRack(testbed.RackConfig{
		Servers:         servers,
		Seed:            seed,
		ClockModel:      clock.PerfectSyncModel(),
		ControlFailProb: controlFailProb,
	})
}

func injectEvery(rack *testbed.Rack, host int, from, to sim.Time, size int) {
	h := rack.Servers[host]
	for t := from; t < to; t += sim.Millisecond {
		tt := t
		rack.Eng.At(tt, func() {
			h.Inject(&netsim.Segment{
				Flow: netsim.FlowKey{Src: 999, Dst: h.ID, SrcPort: 7, DstPort: 80},
				Size: size,
			})
		})
	}
}

func TestControllerCrashMidRunTruncates(t *testing.T) {
	rack := degradedRack(3, 0, 9)
	cfg := Config{Interval: sim.Millisecond, Buckets: 100}
	ctrl := NewController(rack, cfg)
	const at = 20 * sim.Millisecond
	if err := ctrl.Schedule(at); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		injectEvery(rack, i, 21*sim.Millisecond, 119*sim.Millisecond, 1000)
	}
	// Host 2 crashes at 70 ms and reboots well before the 125 ms harvest.
	rack.Eng.At(70*sim.Millisecond, func() { rack.Servers[2].Crash(20 * sim.Millisecond) })
	rack.Eng.RunUntil(ctrl.HarvestDeadline(at) + sim.Millisecond)

	if !ctrl.Done() {
		t.Fatal("harvest did not complete")
	}
	cols := ctrl.Collections()
	if cols[0].Status != StatusOK || cols[1].Status != StatusOK {
		t.Errorf("healthy hosts = %v, %v, want ok", cols[0].Status, cols[1].Status)
	}
	if cols[2].Status != StatusTruncated {
		t.Fatalf("crashed host = %v, want truncated", cols[2].Status)
	}
	run := cols[2].Run
	if run == nil || !run.Truncated {
		t.Fatal("truncated host did not yield a truncated run")
	}
	// First packet at 21 ms, crash at 70 ms: ~49 complete buckets.
	if run.ValidBuckets < 45 || run.ValidBuckets > 50 {
		t.Errorf("ValidBuckets = %d, want ≈49", run.ValidBuckets)
	}
	for _, v := range run.Bytes[CtrIn][run.ValidBuckets:] {
		if v != 0 {
			t.Fatal("data beyond the truncation point")
		}
	}

	sr, err := ctrl.Result()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Health.OK != 2 || sr.Health.Truncated != 1 || sr.Health.Degraded() != 1 {
		t.Errorf("health = %v", sr.Health)
	}
	srv := &sr.Servers[2]
	if srv.Status != StatusTruncated {
		t.Errorf("aligned series status = %v", srv.Status)
	}
	v := srv.Valid(sr.Samples)
	if v <= 0 || v >= sr.Samples {
		t.Errorf("valid samples = %d of %d, want a proper prefix", v, sr.Samples)
	}
	for _, x := range srv.In[v:] {
		if x != 0 {
			t.Fatal("aligned series nonzero past the valid prefix")
		}
	}
	// The healthy hosts keep the full window.
	if sr.Servers[0].Valid(sr.Samples) != sr.Samples {
		t.Errorf("healthy host valid = %d, want %d", sr.Servers[0].Valid(sr.Samples), sr.Samples)
	}
}

func TestControllerHostDownThroughHarvestMissing(t *testing.T) {
	rack := degradedRack(2, 0, 10)
	ctrl := NewController(rack, Config{Interval: sim.Millisecond, Buckets: 100})
	const at = 20 * sim.Millisecond
	if err := ctrl.Schedule(at); err != nil {
		t.Fatal(err)
	}
	injectEvery(rack, 0, 21*sim.Millisecond, 119*sim.Millisecond, 800)
	injectEvery(rack, 1, 21*sim.Millisecond, 119*sim.Millisecond, 800)
	// Host 1 goes down just before the harvest and stays down past the
	// straggler deadline: every RPC attempt must fail.
	rack.Eng.At(120*sim.Millisecond, func() { rack.Servers[1].Crash(10 * sim.Second) })
	rack.Eng.RunUntil(ctrl.HarvestDeadline(at) + sim.Millisecond)

	if !ctrl.Done() {
		t.Fatal("harvest did not complete")
	}
	cols := ctrl.Collections()
	if cols[1].Status != StatusMissing {
		t.Fatalf("down host = %v, want missing", cols[1].Status)
	}
	if cols[1].Attempts < 2 {
		t.Errorf("controller gave up after %d attempts, want retries", cols[1].Attempts)
	}
	if !errors.Is(cols[1].Err, testbed.ErrHostDown) {
		t.Errorf("missing host error = %v, want ErrHostDown", cols[1].Err)
	}
	sr, err := ctrl.Result()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Health.Missing != 1 || sr.Health.OK != 1 {
		t.Errorf("health = %v", sr.Health)
	}
	srv := &sr.Servers[1]
	if srv.Status != StatusMissing || srv.Valid(sr.Samples) != 0 {
		t.Errorf("missing host series: status %v, valid %d", srv.Status, srv.Valid(sr.Samples))
	}
	for _, x := range srv.In {
		if x != 0 {
			t.Fatal("missing host series not zeroed")
		}
	}
}

func TestControllerDownAtArmUnsynced(t *testing.T) {
	rack := degradedRack(2, 0, 11)
	ctrl := NewController(rack, Config{Interval: sim.Millisecond, Buckets: 50})
	const at = 20 * sim.Millisecond
	if err := ctrl.Schedule(at); err != nil {
		t.Fatal(err)
	}
	injectEvery(rack, 0, 21*sim.Millisecond, 69*sim.Millisecond, 500)
	// Host 1 is down when the run is armed; it reboots mid-window, too late
	// to join the synchronized start.
	rack.Eng.At(10*sim.Millisecond, func() { rack.Servers[1].Crash(30 * sim.Millisecond) })
	rack.Eng.RunUntil(ctrl.HarvestDeadline(at) + sim.Millisecond)

	if !ctrl.Done() {
		t.Fatal("harvest did not complete")
	}
	if st := ctrl.Collections()[1].Status; st != StatusUnsynced {
		t.Fatalf("host down at arm = %v, want unsynced", st)
	}
	sr, err := ctrl.Result()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Health.Unsynced != 1 {
		t.Errorf("health = %v", sr.Health)
	}
}

func TestControllerRetriesThroughLossyControlPlane(t *testing.T) {
	rack := degradedRack(4, 0.4, 12)
	ctrl := NewController(rack, Config{Interval: sim.Millisecond, Buckets: 100})
	const at = 20 * sim.Millisecond
	if err := ctrl.Schedule(at); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		injectEvery(rack, i, 21*sim.Millisecond, 119*sim.Millisecond, 700)
	}
	rack.Eng.RunUntil(ctrl.HarvestDeadline(at) + sim.Millisecond)

	if !ctrl.Done() {
		t.Fatal("harvest did not complete despite the straggler deadline")
	}
	if rack.Control.Failures == 0 {
		t.Fatal("seeded lossy control plane produced no failures")
	}
	retried := false
	for _, col := range ctrl.Collections() {
		if col.Status != StatusOK && col.Status != StatusMissing {
			t.Errorf("host %d: status %v, want ok or missing", col.Host, col.Status)
		}
		if col.Attempts > 1 {
			retried = true
		}
		if col.Status == StatusOK && col.Run == nil {
			t.Errorf("host %d ok without a run", col.Host)
		}
	}
	if !retried {
		t.Error("no host needed a retry at 40% RPC loss")
	}
}

func TestControllerRepeatedSchedules(t *testing.T) {
	rack := degradedRack(2, 0, 13)
	ctrl := NewController(rack, Config{Interval: sim.Millisecond, Buckets: 40})

	const first = 20 * sim.Millisecond
	if err := ctrl.Schedule(first); err != nil {
		t.Fatal(err)
	}
	// A second schedule while the first harvest is pending must be refused.
	if err := ctrl.Schedule(first + 200*sim.Millisecond); !errors.Is(err, ErrHarvestPending) {
		t.Fatalf("overlapping schedule: err = %v, want ErrHarvestPending", err)
	}
	injectEvery(rack, 0, 21*sim.Millisecond, 59*sim.Millisecond, 400)
	injectEvery(rack, 1, 21*sim.Millisecond, 59*sim.Millisecond, 400)
	rack.Eng.RunUntil(ctrl.HarvestDeadline(first) + sim.Millisecond)
	if !ctrl.Done() {
		t.Fatal("first harvest did not complete")
	}
	sr1, err := ctrl.Result()
	if err != nil {
		t.Fatal(err)
	}

	// Done resets on the next schedule, and the second run harvests cleanly.
	second := rack.Eng.Now() + 20*sim.Millisecond
	if err := ctrl.Schedule(second); err != nil {
		t.Fatal(err)
	}
	if ctrl.Done() {
		t.Fatal("Done did not reset on reschedule")
	}
	if _, err := ctrl.Result(); !errors.Is(err, ErrNotHarvested) {
		t.Fatalf("result mid-flight: err = %v, want ErrNotHarvested", err)
	}
	injectEvery(rack, 0, second+sim.Millisecond, second+39*sim.Millisecond, 400)
	injectEvery(rack, 1, second+sim.Millisecond, second+39*sim.Millisecond, 400)
	rack.Eng.RunUntil(ctrl.HarvestDeadline(second) + sim.Millisecond)
	if !ctrl.Done() {
		t.Fatal("second harvest did not complete")
	}
	sr2, err := ctrl.Result()
	if err != nil {
		t.Fatal(err)
	}
	if sr1.Samples <= 0 || sr2.Samples <= 0 {
		t.Errorf("samples = %d then %d", sr1.Samples, sr2.Samples)
	}
	if !sr2.Health.AllOK() {
		t.Errorf("second run health = %v", sr2.Health)
	}
}

func TestControllerResultNoRuns(t *testing.T) {
	rack := degradedRack(2, 0, 14)
	ctrl := NewController(rack, Config{Interval: sim.Millisecond, Buckets: 40})
	const at = 20 * sim.Millisecond
	if err := ctrl.Schedule(at); err != nil {
		t.Fatal(err)
	}
	// Both hosts down before the run is armed and for its whole lifetime.
	rack.Eng.At(5*sim.Millisecond, func() {
		rack.Servers[0].Crash(10 * sim.Second)
		rack.Servers[1].Crash(10 * sim.Second)
	})
	rack.Eng.RunUntil(ctrl.HarvestDeadline(at) + sim.Millisecond)
	if !ctrl.Done() {
		t.Fatal("harvest did not complete")
	}
	if _, err := ctrl.Result(); !errors.Is(err, ErrNoRuns) {
		t.Fatalf("all-down result: err = %v, want ErrNoRuns", err)
	}
}

// --- Align edge cases on hand-built runs ---

func mkRun(host netsim.HostID, buckets int, startWall clock.WallTime, fill uint64) *Run {
	r := &Run{
		Host: host, Interval: sim.Millisecond, Buckets: buckets,
		Started: true, StartWall: startWall, LineRateBps: 1,
	}
	for k := 0; k < NumCounters; k++ {
		r.Bytes[k] = make([]uint64, buckets)
	}
	for i := range r.Bytes[CtrIn] {
		r.Bytes[CtrIn][i] = fill
	}
	return r
}

func TestAlignNegativeOffsetClockSkew(t *testing.T) {
	// Host b's clock runs ahead: its recorded start precedes the common
	// origin, so its interpolation offset is negative and must clamp to the
	// series edge instead of reading out of bounds.
	a := mkRun(1, 10, clock.WallTime(5*sim.Millisecond), 100)
	b := mkRun(2, 10, clock.WallTime(2*sim.Millisecond), 40)
	sr, err := Align([]*Run{a, b}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sr.StartWall != a.StartWall {
		t.Errorf("common origin %d, want a's start %d", sr.StartWall, a.StartWall)
	}
	for i, v := range sr.Servers[1].In[:sr.Samples-1] {
		if v != 40 {
			t.Fatalf("skewed host sample %d = %v, want 40", i, v)
		}
	}
}

func TestAlignSingleStartedHost(t *testing.T) {
	started := mkRun(1, 8, 0, 50)
	idle := &Run{Host: 2, Interval: sim.Millisecond, Buckets: 8, LineRateBps: 1}
	for k := 0; k < NumCounters; k++ {
		idle.Bytes[k] = make([]uint64, 8)
	}
	sr, err := Align([]*Run{started, idle}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Samples != 8 {
		t.Errorf("samples = %d, want the single started host's window", sr.Samples)
	}
	// The idle host is healthy: its zeros are real measurements.
	if sr.Servers[1].Status != StatusOK || sr.Servers[1].Valid(sr.Samples) != sr.Samples {
		t.Errorf("idle host: status %v valid %d", sr.Servers[1].Status, sr.Servers[1].Valid(sr.Samples))
	}
	if !sr.Health.AllOK() {
		t.Errorf("health = %v", sr.Health)
	}
}

func TestAlignMixedTruncatedWindows(t *testing.T) {
	// Two complete runs plus two truncated ones cut at different points:
	// the common window must come from the complete runs only, and each
	// truncated host contributes exactly its own valid prefix.
	full1 := mkRun(1, 20, 0, 100)
	full2 := mkRun(2, 20, 0, 100)
	t1 := mkRun(3, 20, 0, 100)
	t1.Truncated = true
	t1.ValidBuckets = 5
	t2 := mkRun(4, 20, 0, 100)
	t2.Truncated = true
	t2.ValidBuckets = 12
	sr, err := Align([]*Run{full1, full2, t1, t2}, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Samples != 20 {
		t.Fatalf("samples = %d: truncated runs shrank the common window", sr.Samples)
	}
	if sr.Health.OK != 2 || sr.Health.Truncated != 2 {
		t.Errorf("health = %v", sr.Health)
	}
	if v := sr.Servers[2].Valid(sr.Samples); v != 5 {
		t.Errorf("t1 valid = %d, want 5", v)
	}
	if v := sr.Servers[3].Valid(sr.Samples); v != 12 {
		t.Errorf("t2 valid = %d, want 12", v)
	}
	for i := 12; i < 20; i++ {
		if sr.Servers[3].In[i] != 0 {
			t.Fatalf("t2 sample %d nonzero past truncation", i)
		}
	}
}

func TestAlignAllTruncatedFallback(t *testing.T) {
	// Rack-wide outage: no complete run exists, so the window falls back to
	// the truncated runs' intersection instead of erroring out.
	t1 := mkRun(1, 20, 0, 60)
	t1.Truncated = true
	t1.ValidBuckets = 10
	t2 := mkRun(2, 20, 0, 60)
	t2.Truncated = true
	t2.ValidBuckets = 14
	sr, err := Align([]*Run{t1, t2}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Samples != 10 {
		t.Errorf("fallback window = %d samples, want 10 (shortest truncated run)", sr.Samples)
	}
	if sr.Health.Truncated != 2 {
		t.Errorf("health = %v", sr.Health)
	}
}

func TestAlignCollectionsMissingHost(t *testing.T) {
	ok := mkRun(1, 10, 0, 80)
	cols := []HostCollection{
		{Host: 1, Status: StatusOK, Run: ok},
		{Host: 2, Status: StatusMissing},
	}
	sr, err := AlignCollections(cols, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Samples != 10 {
		t.Errorf("samples = %d", sr.Samples)
	}
	if sr.Health.Missing != 1 || sr.Health.OK != 1 {
		t.Errorf("health = %v", sr.Health)
	}
	miss := &sr.Servers[1]
	if miss.Status != StatusMissing || miss.Host != 2 || miss.Valid(sr.Samples) != 0 {
		t.Errorf("missing series = %+v", miss)
	}
	if len(miss.In) != sr.Samples {
		t.Errorf("missing series length %d, want %d", len(miss.In), sr.Samples)
	}
}

// TestRecycledCountersStartClean harvests rack B, then a lossy rack A with a
// crash and a straggler, whose harvest returns dirty counter blocks to the
// pool, then rack B again: armed on recycled blocks, the second harvest must
// match the first exactly. It also checks who keeps a block once the harvest
// resolves: every host that harvested gave its block back, and a Missing
// host, which may still be armed, kept its own.
func TestRecycledCountersStartClean(t *testing.T) {
	cfg := Config{Interval: sim.Millisecond, Buckets: 100, CountFlows: true}
	const at = 20 * sim.Millisecond
	harvestB := func() *SyncRun {
		rack := degradedRack(4, 0, 21)
		ctrl := NewController(rack, cfg)
		if err := ctrl.Schedule(at); err != nil {
			t.Fatal(err)
		}
		for i := range 4 {
			injectEvery(rack, i, 21*sim.Millisecond, 119*sim.Millisecond, 300+100*i)
		}
		rack.Eng.RunUntil(ctrl.HarvestDeadline(at) + sim.Millisecond)
		sr, err := ctrl.Result()
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	first := harvestB()

	rackA := degradedRack(6, 0.3, 22)
	ctrlA := NewController(rackA, cfg)
	if err := ctrlA.Schedule(at); err != nil {
		t.Fatal(err)
	}
	// A new flow every millisecond on every host, so A's sketches differ
	// from B's one flow per host.
	for i, h := range rackA.Servers {
		for ms := 21; ms < 119; ms++ {
			rackA.Eng.At(sim.Time(ms)*sim.Millisecond, func() {
				h.Inject(&netsim.Segment{
					Flow: netsim.FlowKey{Src: 999, Dst: h.ID, SrcPort: uint16(ms), DstPort: 80},
					Size: 1400 + i,
				})
			})
		}
	}
	// Host 2 crashes mid-run and reboots before the harvest (Truncated);
	// host 5 goes down before the harvest and stays down past the straggler
	// deadline (Missing).
	rackA.Eng.At(70*sim.Millisecond, func() { rackA.Servers[2].Crash(20 * sim.Millisecond) })
	rackA.Eng.At(120*sim.Millisecond, func() { rackA.Servers[5].Crash(150 * sim.Millisecond) })
	rackA.Eng.RunUntil(ctrlA.HarvestDeadline(at) + sim.Millisecond)
	if _, err := ctrlA.Result(); err != nil {
		t.Fatal(err)
	}
	if rackA.Control.Failures == 0 {
		t.Error("seeded lossy control plane produced no failures")
	}
	seen := map[CollectionStatus]int{}
	for i, col := range ctrlA.Collections() {
		seen[col.Status]++
		held := ctrlA.samplers[i].slab != nil
		switch col.Status {
		case StatusOK, StatusTruncated:
			if held {
				t.Errorf("host %d (%v) kept its counter block after the harvest", i, col.Status)
			}
		case StatusMissing:
			if !held {
				t.Errorf("missing host %d gave up its counter block", i)
			}
		}
	}
	if seen[StatusTruncated] == 0 || seen[StatusMissing] == 0 {
		t.Fatalf("rack A outcomes %v, want a truncated and a missing host", seen)
	}
	// The missing host reboots holding its block and carries traffic again.
	end := rackA.Eng.Now() + 200*sim.Millisecond
	injectEvery(rackA, 5, rackA.Eng.Now(), end, 900)
	rackA.Eng.RunUntil(end)

	if second := harvestB(); !reflect.DeepEqual(first, second) {
		t.Error("rack B harvested on recycled counter blocks differs from its first harvest")
	}
}
