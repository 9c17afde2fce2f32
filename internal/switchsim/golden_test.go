package switchsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// goldenDigests pins the exact observable behavior of the default-config
// switch under each sharing policy — delivery order and timing, CE marks,
// discards, and final counters — under a fixed traffic pattern. This is the
// switch-level half of the byte-identity gate (the fleet-level half is
// fleet's TestGenerateSmallGoldenDigest); the DT digest was recorded before
// the policies were promoted to an interface. ABM's digest equals DT's: every
// queue here drains at line rate, so its drain-rate factor mu stays 1 and
// its threshold is DT's.
var goldenDigests = map[Policy]string{
	PolicyDT:       "f2bdba4257470c8ff2060364f4dc14ef2bc92607db1104625176b4293c555d70",
	PolicyStatic:   "8873c2a1deccb86bc434be870d33a3e32dd5e52175bd78f9680c92f98047484e",
	PolicyComplete: "7e0c6881d660d416f50c4694cf2cf0c0e5222a5b0b6be9678f632b204067d100",
	PolicyBShare:   "5f36b7dbe44ff3cb9fa4245efc17c3a0aaa8c595749bb8ddc3a665fcee112817",
	PolicyABM:      "f2bdba4257470c8ff2060364f4dc14ef2bc92607db1104625176b4293c555d70",
}

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

func TestPolicyGoldenDigest(t *testing.T) {
	for _, pol := range KnownPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			h := sha256.New()
			eng := sim.NewEngine()
			cfg := DefaultConfig(8)
			cfg.Policy = pol
			sw := New(eng, cfg)
			for p := 0; p < 8; p++ {
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
			for q := 0; q < Quadrants; q++ {
				fmt.Fprintf(h, "p %d %d %d\n", q, sw.SharedUsed(q), sw.Threshold(q))
			}
			fmt.Fprintf(h, "drops %d\n", sw.TotalDiscards)

			if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigests[pol] {
				t.Errorf("%v behavior changed: digest %s, golden %s", pol, got, goldenDigests[pol])
			}
			if sw.TotalDiscards == 0 {
				t.Error("golden traffic produced no discards; pattern no longer stresses the policy")
			}
			if sw.Totals().ECNMarkedSegs == 0 {
				t.Error("golden traffic produced no CE marks; pattern no longer crosses the ECN threshold")
			}
		})
	}
}
