package switchsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// goldenDTDigest pins the exact observable behavior of the default-config
// dynamic-threshold switch — delivery order and timing, CE marks, discards,
// and final counters — under a fixed traffic pattern. The sharing-policy
// interface refactor must keep the default DT path byte-identical; this
// digest is the switch-level half of that gate (the fleet-level half is
// fleet's TestGenerateSmallGoldenDigest). Recorded before the policies were
// promoted to an interface.
const goldenDTDigest = "f2bdba4257470c8ff2060364f4dc14ef2bc92607db1104625176b4293c555d70"

// goldenTraffic drives a deterministic mix into an 8-port default switch:
// steady multi-port load with periodic single-queue incast waves big enough
// to cross the ECN threshold and the DT limit, so admission, marking,
// discard, and release paths all execute many times.
func goldenTraffic(eng *sim.Engine, sw *Switch) {
	rng := sim.NewRNG(42)
	for tick := 0; tick < 400; tick++ {
		at := sim.Time(tick) * 25 * sim.Microsecond
		n := 1 + rng.Intn(6)
		if tick%37 == 0 {
			n = 500 // incast wave: ~2.3 MB at once, past a lone queue's DT share
		}
		port := rng.Intn(8)
		for i := 0; i < n; i++ {
			size := 66 + rng.Intn(9000)
			ect := rng.Intn(4) != 0
			srcPort := uint16(1000 + rng.Intn(64))
			eng.After(at, func() {
				seg := &netsim.Segment{
					Flow: netsim.FlowKey{Src: 100, Dst: netsim.HostID(port), SrcPort: srcPort, DstPort: 80},
					Size: size,
				}
				if ect {
					seg.Flags = netsim.FlagECT
				}
				sw.ForwardFromFabric(port, seg)
			})
		}
	}
}

func TestDefaultDTGoldenDigest(t *testing.T) {
	h := sha256.New()
	eng := sim.NewEngine()
	sw := New(eng, DefaultConfig(8))
	for p := 0; p < 8; p++ {
		p := p
		sw.ConnectPort(p, func(s *netsim.Segment) {
			fmt.Fprintf(h, "d %d %d %d %d %d\n", p, eng.Now(), s.Size, s.Flags, s.Flow.SrcPort)
		})
	}
	goldenTraffic(eng, sw)
	eng.Run()

	for p := 0; p < 8; p++ {
		st := sw.QueueStats(p)
		fmt.Fprintf(h, "q %d %+v\n", p, st)
	}
	for q := 0; q < sw.Config().Quadrants; q++ {
		fmt.Fprintf(h, "p %d %d %d\n", q, sw.SharedUsed(q), sw.Threshold(q))
	}
	fmt.Fprintf(h, "drops %d\n", sw.TotalDiscards)

	got := hex.EncodeToString(h.Sum(nil))
	if goldenDTDigest == "" {
		t.Fatalf("golden digest unset; current digest: %s", got)
	}
	if got != goldenDTDigest {
		t.Errorf("default DT behavior changed: digest %s, golden %s", got, goldenDTDigest)
	}
	if sw.TotalDiscards == 0 {
		t.Error("golden traffic produced no discards; pattern no longer stresses DT")
	}
	if sw.Totals().ECNMarkedSegs == 0 {
		t.Error("golden traffic produced no CE marks; pattern no longer crosses the ECN threshold")
	}
}
