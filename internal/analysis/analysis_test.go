package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sim"
)

// fullBucket is the byte count of one 1 ms bucket at 100% of a 12.5 Gbps
// line: 1,562,500 bytes.
const fullBucket = 1_562_500

// mkRun builds a synthetic SyncRun from per-server utilization fractions
// (util[server][sample]).
func mkRun(util [][]float64) *core.SyncRun {
	n := len(util[0])
	sr := &core.SyncRun{Interval: sim.Millisecond, Samples: n}
	for s := range util {
		srv := core.ServerSeries{
			Host: 0, Port: s, LineRateBps: 12_500_000_000,
			In:     make([]float64, n),
			InRetx: make([]float64, n),
			Conns:  make([]float64, n),
		}
		for i, u := range util[s] {
			srv.In[i] = u * fullBucket
		}
		sr.Servers = append(sr.Servers, srv)
	}
	return sr
}

func TestBurstDetectionBasic(t *testing.T) {
	ra := Analyze(mkRun([][]float64{
		{0.1, 0.6, 0.7, 0.8, 0.1, 0.9, 0.1, 0.1},
	}), DefaultOptions())
	if len(ra.Bursts) != 2 {
		t.Fatalf("detected %d bursts, want 2", len(ra.Bursts))
	}
	b0, b1 := ra.Bursts[0], ra.Bursts[1]
	if b0.Start != 1 || b0.End != 4 || b0.Len() != 3 {
		t.Errorf("burst 0 = [%d,%d)", b0.Start, b0.End)
	}
	if b1.Start != 5 || b1.End != 6 {
		t.Errorf("burst 1 = [%d,%d)", b1.Start, b1.End)
	}
	if got := b0.Volume; math.Abs(got-2.1*fullBucket) > 1 {
		t.Errorf("burst 0 volume = %v", got)
	}
}

func TestBurstThresholdIsStrict(t *testing.T) {
	// Exactly 50% does not exceed the threshold.
	ra := Analyze(mkRun([][]float64{{0.5, 0.5}}), DefaultOptions())
	if len(ra.Bursts) != 0 {
		t.Errorf("50%% utilization misclassified as burst")
	}
}

func TestContentionCounting(t *testing.T) {
	ra := Analyze(mkRun([][]float64{
		{0.9, 0.9, 0.0, 0.9},
		{0.9, 0.0, 0.9, 0.9},
		{0.0, 0.0, 0.0, 0.9},
	}), DefaultOptions())
	want := []int{2, 1, 1, 3}
	for i, w := range want {
		if ra.Contention[i] != w {
			t.Errorf("contention[%d] = %d, want %d", i, ra.Contention[i], w)
		}
	}
	if got := ra.AvgContention(); math.Abs(got-7.0/4) > 1e-9 {
		t.Errorf("AvgContention = %v", got)
	}
}

func TestBurstContentionAssociation(t *testing.T) {
	// Server 0 bursts [0,2); overlaps server 1 at sample 1 only.
	ra := Analyze(mkRun([][]float64{
		{0.9, 0.9, 0.0},
		{0.0, 0.9, 0.9},
	}), DefaultOptions())
	if len(ra.Bursts) != 2 {
		t.Fatalf("bursts = %d", len(ra.Bursts))
	}
	for _, b := range ra.Bursts {
		if b.MaxContention != 2 {
			t.Errorf("server %d burst MaxContention = %d, want 2", b.Server, b.MaxContention)
		}
		if !b.Contended() {
			t.Error("overlapping burst not contended")
		}
	}
}

func TestLoneBurstNotContended(t *testing.T) {
	ra := Analyze(mkRun([][]float64{
		{0.9, 0.9, 0.0},
		{0.0, 0.0, 0.0},
	}), DefaultOptions())
	if len(ra.Bursts) != 1 {
		t.Fatalf("bursts = %d", len(ra.Bursts))
	}
	if ra.Bursts[0].MaxContention != 1 || ra.Bursts[0].Contended() {
		t.Errorf("lone burst: %+v", ra.Bursts[0])
	}
}

func TestLossAttributionWithinLookahead(t *testing.T) {
	sr := mkRun([][]float64{{0.9, 0.9, 0.0, 0.0, 0.0, 0.0}})
	// Retransmission two samples after the burst ends (sample 3).
	sr.Servers[0].InRetx[3] = 5000
	ra := Analyze(sr, DefaultOptions())
	if !ra.Bursts[0].Lossy {
		t.Error("retx within lookahead not attributed to burst")
	}

	// Retransmission beyond the lookahead (sample 5) is not attributed.
	sr2 := mkRun([][]float64{{0.9, 0.9, 0.0, 0.0, 0.0, 0.0}})
	sr2.Servers[0].InRetx[5] = 5000
	ra2 := Analyze(sr2, DefaultOptions())
	if ra2.Bursts[0].Lossy {
		t.Error("retx beyond lookahead wrongly attributed")
	}
}

func TestContentionAtFirstLoss(t *testing.T) {
	sr := mkRun([][]float64{
		{0.9, 0.9, 0.9, 0.0},
		{0.0, 0.9, 0.9, 0.0},
		{0.0, 0.0, 0.9, 0.0},
	})
	sr.Servers[0].InRetx[1] = 100
	ra := Analyze(sr, DefaultOptions())
	var b *Burst
	for i := range ra.Bursts {
		if ra.Bursts[i].Server == 0 {
			b = &ra.Bursts[i]
		}
	}
	if b == nil || !b.Lossy {
		t.Fatal("server 0 burst not lossy")
	}
	if b.ContentionAtFirstLoss != 2 {
		t.Errorf("ContentionAtFirstLoss = %d, want 2", b.ContentionAtFirstLoss)
	}
	if b.MaxContention != 3 {
		t.Errorf("MaxContention = %d, want 3", b.MaxContention)
	}
}

func TestServerRunStats(t *testing.T) {
	sr := mkRun([][]float64{{0.0, 0.8, 0.8, 0.0}})
	sr.Servers[0].Conns = []float64{2, 20, 30, 4}
	ra := Analyze(sr, DefaultOptions())
	run := ra.Servers[0]
	if !run.Bursty || run.NumBursts != 1 {
		t.Fatalf("run = %+v", run)
	}
	// 4 samples at 1ms = 4ms; 1 burst -> 250 bursts/sec.
	if math.Abs(run.BurstsPerSec-250) > 1e-9 {
		t.Errorf("BurstsPerSec = %v", run.BurstsPerSec)
	}
	if math.Abs(run.AvgConnsInside-25) > 1e-9 {
		t.Errorf("AvgConnsInside = %v", run.AvgConnsInside)
	}
	if math.Abs(run.AvgConnsOutside-3) > 1e-9 {
		t.Errorf("AvgConnsOutside = %v", run.AvgConnsOutside)
	}
	if math.Abs(run.AvgUtilInside-0.8) > 1e-6 {
		t.Errorf("AvgUtilInside = %v", run.AvgUtilInside)
	}
	if math.Abs(run.AvgUtil-0.4) > 1e-6 {
		t.Errorf("AvgUtil = %v", run.AvgUtil)
	}
	if math.Abs(run.BurstBytes-1.6*fullBucket) > 1 {
		t.Errorf("BurstBytes = %v", run.BurstBytes)
	}
}

func TestMinActiveContentionExcludesIdle(t *testing.T) {
	ra := Analyze(mkRun([][]float64{
		{0.0, 0.9, 0.9, 0.0},
		{0.0, 0.0, 0.9, 0.0},
	}), DefaultOptions())
	min, ok := ra.MinActiveContention()
	if !ok || min != 1 {
		t.Errorf("MinActiveContention = %d,%v want 1,true", min, ok)
	}

	idle := Analyze(mkRun([][]float64{{0, 0}}), DefaultOptions())
	if _, ok := idle.MinActiveContention(); ok {
		t.Error("idle run reported active contention")
	}
}

func TestQueueShareMatchesDT(t *testing.T) {
	ra := Analyze(mkRun([][]float64{{0}}), DefaultOptions())
	// alpha=1: share(1)=1/2, share(3)=1/4; contention 0 treated as 1.
	if got := ra.QueueShare(1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("QueueShare(1) = %v", got)
	}
	if got := ra.QueueShare(3); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("QueueShare(3) = %v", got)
	}
	if got := ra.QueueShare(0); got != ra.QueueShare(1) {
		t.Error("QueueShare(0) != QueueShare(1)")
	}
}

func TestBufferShareDrop(t *testing.T) {
	// min contention 1, p90 contention 2 (alpha=1): shares 1/2 -> 1/3,
	// drop = (1/2-1/3)/(1/2) = 1/3 — the paper's canonical 33.3% drop.
	util := make([][]float64, 2)
	util[0] = make([]float64, 100)
	util[1] = make([]float64, 100)
	for i := 0; i < 100; i++ {
		util[0][i] = 0.9 // always bursty
		if i < 95 {
			util[1][i] = 0.9 // bursty in 95% of samples -> p90 contention 2
		}
	}
	// Give one sample contention 1 so min=1.
	util[1][99] = 0
	ra := Analyze(mkRun(util), DefaultOptions())
	drop, ok := ra.BufferShareDrop()
	if !ok {
		t.Fatal("no drop computed")
	}
	if math.Abs(drop-1.0/3) > 1e-9 {
		t.Errorf("drop = %v, want 1/3", drop)
	}
}

func TestBufferShareDropExcludesZeroP90(t *testing.T) {
	util := make([][]float64, 1)
	util[0] = make([]float64, 100)
	util[0][0] = 0.9 // single bursty sample: p90 contention is 0
	ra := Analyze(mkRun(util), DefaultOptions())
	if _, ok := ra.BufferShareDrop(); ok {
		t.Error("run with p90 contention 0 not excluded")
	}
}

func TestContentionNeverExceedsServers(t *testing.T) {
	f := func(raw []uint8, nsRaw uint8) bool {
		ns := int(nsRaw%5) + 1
		n := 16
		util := make([][]float64, ns)
		idx := 0
		for s := range util {
			util[s] = make([]float64, n)
			for i := 0; i < n; i++ {
				if idx < len(raw) {
					util[s][i] = float64(raw[idx]) / 255
					idx++
				}
			}
		}
		ra := Analyze(mkRun(util), DefaultOptions())
		for _, c := range ra.Contention {
			if c < 0 || c > ns {
				return false
			}
		}
		for _, b := range ra.Bursts {
			if b.MaxContention < 1 || b.MaxContention > ns || b.Len() <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBurstsCoverExactlyBurstySamples(t *testing.T) {
	f := func(raw []uint8) bool {
		n := len(raw)
		if n == 0 {
			return true
		}
		util := [][]float64{make([]float64, n)}
		for i, r := range raw {
			util[0][i] = float64(r) / 255
		}
		ra := Analyze(mkRun(util), DefaultOptions())
		covered := make([]bool, n)
		for _, b := range ra.Bursts {
			for i := b.Start; i < b.End; i++ {
				if covered[i] {
					return false // overlap
				}
				covered[i] = true
			}
		}
		for i := 0; i < n; i++ {
			if covered[i] != ra.Bursty[0][i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
