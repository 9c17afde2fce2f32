package fleet

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// hsTinyConfig is a one-rack-per-region configuration small enough to
// generate twice per test.
func hsTinyConfig(seed uint64) Config {
	return Config{
		Seed:           seed,
		RacksPerRegion: 1,
		ServersPerRack: 12,
		Hours:          []int{6},
		Buckets:        200,
		Interval:       sim.Millisecond,
		Workers:        2,
	}
}

// TestHostStackOffByteIdentity proves the knob is invisible when off, and —
// stronger — that turning it on perturbs nothing but the extra records: the
// tap is pure bookkeeping, so stripping the HostStackRecs from an
// instrumented dataset must reproduce the uninstrumented digest byte for
// byte.
func TestHostStackOffByteIdentity(t *testing.T) {
	off, err := collect(hsTinyConfig(11))
	if err != nil {
		t.Fatalf("collect off: %v", err)
	}
	offDigest, err := off.Digest()
	if err != nil {
		t.Fatalf("Digest off: %v", err)
	}

	cfg := hsTinyConfig(11)
	cfg.HostStack = true
	on, err := collect(cfg)
	if err != nil {
		t.Fatalf("collect on: %v", err)
	}
	onDigest, err := on.Digest()
	if err != nil {
		t.Fatalf("Digest on: %v", err)
	}
	if onDigest == offDigest {
		t.Fatal("HostStack on produced the same digest as off; records were not written")
	}

	withRecs := 0
	for i := range on.Runs {
		r := &on.Runs[i]
		if !r.Collected {
			continue
		}
		if r.HostStack == nil {
			t.Fatalf("collected run %s/%d hour %d missing HostStackRec", r.Region, r.RackID, r.Hour)
		}
		if r.HostStack.InSegs == 0 || r.HostStack.Hosts == 0 {
			t.Fatalf("run %s/%d hour %d: empty host-stack record %+v", r.Region, r.RackID, r.Hour, r.HostStack)
		}
		if r.HostStack.InP99Us <= 0 {
			t.Fatalf("run %s/%d hour %d: zero ingress p99", r.Region, r.RackID, r.Hour)
		}
		withRecs++
	}
	if withRecs == 0 {
		t.Fatal("no collected runs carried host-stack records")
	}

	// Strip the records: everything else must be byte-identical to the
	// uninstrumented generation, proving the tap perturbed no simulation
	// state.
	for i := range on.Runs {
		on.Runs[i].HostStack = nil
	}
	stripped, err := on.Digest()
	if err != nil {
		t.Fatalf("Digest stripped: %v", err)
	}
	if stripped != offDigest {
		t.Fatalf("host-stack tap perturbed the simulation:\n stripped %s\n off      %s", stripped, offDigest)
	}

	for i := range off.Runs {
		if off.Runs[i].HostStack != nil {
			t.Fatal("HostStack off left a record on a run summary")
		}
	}
}

// TestHostStackForcesFullFidelity pins the hybrid contract: the fluid fast
// path has no per-segment delivery events for the tap to observe, so a
// hybrid generation with HostStack on must take the full-fidelity route and
// produce the full-fidelity digest.
func TestHostStackForcesFullFidelity(t *testing.T) {
	full := hsTinyConfig(23)
	full.HostStack = true
	fds, err := collect(full)
	if err != nil {
		t.Fatalf("collect full: %v", err)
	}
	fullDigest, err := fds.Digest()
	if err != nil {
		t.Fatalf("Digest full: %v", err)
	}

	hyb := hsTinyConfig(23)
	hyb.HostStack = true
	hyb.Fidelity = FidelityHybrid
	hds, err := collect(hyb)
	if err != nil {
		t.Fatalf("collect hybrid: %v", err)
	}
	hybDigest, err := hds.Digest()
	if err != nil {
		t.Fatalf("Digest hybrid: %v", err)
	}
	if hybDigest != fullDigest {
		t.Fatalf("hybrid+hoststack did not fall back to full fidelity:\n hybrid %s\n full   %s", hybDigest, fullDigest)
	}
}

func TestHostStackRecShareAboveUs(t *testing.T) {
	rec := &HostStackRec{}
	rec.InBins[1] = 60  // [1,2) µs
	rec.InBins[11] = 30 // [1024,2048) µs
	rec.InBins[17] = 10 // ≥ 65536 µs
	rec.InSegs = 100
	if got := rec.ShareAboveUs(1024); got != 0.40 {
		t.Fatalf("ShareAboveUs(1024) = %v, want 0.40", got)
	}
	if got := rec.ShareAboveUs(1); got != 0.40+0.60 {
		t.Fatalf("ShareAboveUs(1) = %v, want 1.0", got)
	}
}

// TestHostStackClassString guards the experiment's class labels against
// accidental renames (the render keys on them).
func TestHostStackClassString(t *testing.T) {
	for _, c := range []Class{ClassATypical, ClassAHigh, ClassB} {
		if s := c.String(); s == "" || strings.Contains(s, "Class") {
			t.Fatalf("unexpected class label %q", s)
		}
	}
}
