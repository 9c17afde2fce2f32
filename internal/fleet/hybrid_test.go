package fleet

import (
	"math"
	"testing"
	"time"

	"repro/internal/switchsim"
)

// headline reduces a dataset to the paper's headline statistics: burst
// frequency and length (Figs 6-7), the contention distribution (Fig 9), and
// loss versus contention (Figs 11-13).
type headline struct {
	Runs          int
	Collected     int
	BurstsPerSec  float64 // mean per-server burst arrival rate (Fig 6)
	MeanBurstLen  float64 // samples (Fig 7)
	MeanVolume    float64 // bytes per burst (Fig 7)
	MeanConns     float64 // connections per burst (Fig 8)
	AvgContention float64 // mean of per-run average contention (Fig 9)
	P90Contention float64 // mean of per-run P90 contention (Fig 9)
	LossyShare    float64 // fraction of bursts that are lossy (Figs 11-13)
	LossyCount    int     // absolute lossy-burst count behind LossyShare
	DropShare     float64 // mean switch discard share of enqueued bytes
}

func summarizeHeadline(t *testing.T, d *Dataset) headline {
	t.Helper()
	var h headline
	var bursts, burstLen, volume, conns float64
	var windowSec float64
	var lossy float64
	var enq, disc float64
	for i := range d.Runs {
		r := &d.Runs[i]
		h.Runs++
		if !r.Collected {
			continue
		}
		h.Collected++
		windowSec += r.WindowSeconds() * float64(len(r.ServerRuns))
		h.AvgContention += r.AvgContention
		h.P90Contention += r.P90Contention
		enq += float64(r.Switch.EnqueuedBytes)
		disc += float64(r.Switch.DiscardBytes)
		for _, b := range r.Bursts {
			bursts++
			burstLen += float64(b.Len)
			volume += float64(b.Volume)
			conns += float64(b.AvgConns)
			if b.Lossy {
				lossy++
			}
		}
	}
	if h.Collected > 0 {
		h.AvgContention /= float64(h.Collected)
		h.P90Contention /= float64(h.Collected)
	}
	if windowSec > 0 {
		h.BurstsPerSec = bursts / windowSec
	}
	if bursts > 0 {
		h.MeanBurstLen = burstLen / bursts
		h.MeanVolume = volume / bursts
		h.MeanConns = conns / bursts
		h.LossyShare = lossy / bursts
		h.LossyCount = int(lossy)
	}
	if enq > 0 {
		h.DropShare = disc / enq
	}
	return h
}

// relErr is |a-b| / max(|a|,|b|), 0 when both are 0.
func relErr(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// TestHybridEquivalence is the tentpole's correctness gate: the paper's
// headline figures from a hybrid-fidelity generation of the small preset must
// stay within tolerance of the full-fidelity run. The split is distributional
// by design — the hybrid path re-draws burst schedules analytically — so the
// comparison is on aggregates, not bytes.
func TestHybridEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the small preset twice")
	}
	cfg := SmallConfig()
	cfg.KeepExamples = false

	t0 := time.Now()
	full, err := collect(cfg)
	if err != nil {
		t.Fatalf("full generate: %v", err)
	}
	fullDur := time.Since(t0)

	cfg.Fidelity = FidelityHybrid
	t0 = time.Now()
	hyb, err := collect(cfg)
	if err != nil {
		t.Fatalf("hybrid generate: %v", err)
	}
	hybDur := time.Since(t0)

	fh, hh := summarizeHeadline(t, full), summarizeHeadline(t, hyb)
	t.Logf("full:   %+v (%v)", fh, fullDur)
	t.Logf("hybrid: %+v (%v)", hh, hybDur)
	t.Logf("speedup: %.2fx", float64(fullDur)/float64(hybDur))

	if hh.Collected != hh.Runs {
		t.Errorf("hybrid collected %d of %d runs", hh.Collected, hh.Runs)
	}
	check := func(name string, a, b, tol float64) {
		t.Helper()
		if e := relErr(a, b); e > tol {
			t.Errorf("%s: full %.4g hybrid %.4g (rel err %.2f > %.2f)", name, a, b, e, tol)
		}
	}
	// Tolerances: burst arrivals and volumes are the same Poisson/log-normal
	// draws (different RNG streams), so they agree tightly at this sample
	// size; contention and loss ride on which bursts coincide, so they carry
	// the sampling noise of ~15 rack-hours plus the fluid approximation.
	check("bursts/sec (Fig 6)", fh.BurstsPerSec, hh.BurstsPerSec, 0.10)
	check("burst len (Fig 7)", fh.MeanBurstLen, hh.MeanBurstLen, 0.25)
	check("burst volume (Fig 7)", fh.MeanVolume, hh.MeanVolume, 0.15)
	// Conns ride the background pool's tick-granular crediting; since the
	// fluid path models that granularity the measured error is ~0.5%, and the
	// 5% gate keeps it an order of magnitude tighter than it used to be.
	check("burst conns (Fig 8)", fh.MeanConns, hh.MeanConns, 0.05)
	check("avg contention (Fig 9)", fh.AvgContention, hh.AvgContention, 0.25)
	check("p90 contention (Fig 9)", fh.P90Contention, hh.P90Contention, 0.25)
	// Loss is a rare event on the small preset (a handful of lossy bursts in
	// thousands), so the gate is Poisson-aware on counts, not a relative
	// error on the share: the two counts must sit within each other's ~3
	// sigma shot noise, and losses must not vanish entirely.
	fl, hl := float64(fh.LossyCount), float64(hh.LossyCount)
	if diff := math.Abs(fl - hl); diff > 3*math.Sqrt(math.Max(fl, hl)) {
		t.Errorf("lossy bursts (Figs 11-13): full %d hybrid %d (diff %.0f beyond shot noise)",
			fh.LossyCount, hh.LossyCount, diff)
	}
	if fh.LossyCount > 0 && hh.LossyCount == 0 {
		t.Errorf("hybrid produced no lossy bursts (full had %d)", fh.LossyCount)
	}
	if fh.DropShare > 0 && hh.DropShare == 0 {
		t.Errorf("hybrid lost all switch discards (full drop share %.4g)", fh.DropShare)
	}
}

// TestHybridForcedFullEquivalence pins the fidelity contract for overrides
// the fluid model cannot represent: under BShare, ABM, or ECN-off, a
// hybrid-fidelity generation must silently take the full packet path and
// produce a byte-identical dataset — not a fluid approximation of a policy
// the accountant doesn't model.
func TestHybridForcedFullEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("generates six small datasets")
	}
	for _, o := range []SwitchOverride{
		{Policy: switchsim.PolicyBShare},
		{Policy: switchsim.PolicyABM},
		{ECNThreshold: switchsim.ECNOff},
	} {
		cfg := SmallConfig()
		cfg.KeepExamples = false
		cfg.RacksPerRegion = 2
		cfg.Hours = []int{6}
		cfg.Switch = o

		full, err := collect(cfg)
		if err != nil {
			t.Fatalf("%s full: %v", o, err)
		}
		cfg.Fidelity = FidelityHybrid
		hyb, err := collect(cfg)
		if err != nil {
			t.Fatalf("%s hybrid: %v", o, err)
		}
		fd, err := full.Digest()
		if err != nil {
			t.Fatal(err)
		}
		hd, err := hyb.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if fd != hd {
			t.Errorf("%s: hybrid digest %s != full %s (fluid path ran for an unmodeled override)", o, hd, fd)
		}
	}
}

// TestHybridWorkerInvariance asserts the hybrid digest is a pure function of
// the config: the burst detector and fluid accounting must not leak worker
// scheduling into the dataset.
func TestHybridWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the small preset twice")
	}
	cfg := SmallConfig()
	cfg.KeepExamples = false
	cfg.Fidelity = FidelityHybrid
	cfg.RacksPerRegion = 2

	cfg.Workers = 1
	d1, err := collect(cfg)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	cfg.Workers = 4
	d4, err := collect(cfg)
	if err != nil {
		t.Fatalf("workers=4: %v", err)
	}
	g1, err := d1.Digest()
	if err != nil {
		t.Fatal(err)
	}
	g4, err := d4.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g4 {
		t.Errorf("hybrid digest varies with worker count: %s vs %s", g1, g4)
	}
}
