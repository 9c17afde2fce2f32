package repro

// Benchmark harness: one benchmark per paper table/figure (regenerating the
// artifact from a cached fleet dataset), the §4.3 performance
// microbenchmarks, and ablations for the design choices called out in
// DESIGN.md.
//
// The dataset preset is selected with REPRO_BENCH_PRESET=small|default
// (default small, so `go test -bench .` completes in minutes; use `default`
// for the full-size regeneration reported in EXPERIMENTS.md).

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/switchsim"
	"repro/internal/testbed"
	"repro/internal/transport"
	"repro/internal/workload"
)

// The benchmark dataset is generated once per process into a throwaway
// store; TestMain removes it.
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

func benchDataset(b *testing.B) *dataset.Reader {
	b.Helper()
	dsOnce.Do(func() {
		cfg := fleet.SmallConfig()
		if os.Getenv("REPRO_BENCH_PRESET") == "default" {
			cfg = fleet.DefaultConfig()
		}
		if dsDir, dsErr = os.MkdirTemp("", "repro-bench-"); dsErr != nil {
			return
		}
		dsVal, dsErr = dataset.GenerateDir(context.Background(), dsDir, cfg, nil)
	})
	if dsErr != nil {
		b.Fatal(dsErr)
	}
	return dsVal
}

// benchExperiment regenerates one paper artifact per iteration.
func benchExperiment(b *testing.B, id string) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id, ds)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// ---- one benchmark per table and figure ----

// Figures 1, 3 and 4 read no dataset and the registry memoises them, so their
// benchmarks call the generators themselves.
func benchConst(b *testing.B, g experiments.Generator) {
	for i := 0; i < b.N; i++ {
		r, err := g(nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) == 0 {
			b.Fatalf("%s produced no rows", r.ID)
		}
	}
}

func BenchmarkFig01QueueShare(b *testing.B)    { benchConst(b, experiments.Fig01QueueShare) }
func BenchmarkFig03MulticastSync(b *testing.B) { benchConst(b, experiments.Fig03MulticastSync) }
func BenchmarkFig04BurstIdent(b *testing.B)    { benchConst(b, experiments.Fig04BurstIdent) }
func BenchmarkFig05DeepDive(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkTable1Dataset(b *testing.B)      { benchExperiment(b, "tab1") }
func BenchmarkFig06BurstFreq(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig07BurstLen(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkFig08Connections(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig09ContentionCDF(b *testing.B) { benchExperiment(b, "fig9") }
func BenchmarkFig10TaskDiversity(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11DominantTask(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12DailyVariation(b *testing.B) {
	benchExperiment(b, "fig12")
}
func BenchmarkFig13Diurnal(b *testing.B)        { benchExperiment(b, "fig13") }
func BenchmarkFig14VolumeCorr(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15RunVariation(b *testing.B)   { benchExperiment(b, "fig15") }
func BenchmarkTable2BurstClasses(b *testing.B)  { benchExperiment(b, "tab2") }
func BenchmarkFig16ContentionLoss(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig17Discards(b *testing.B)       { benchExperiment(b, "fig17") }
func BenchmarkFig18LengthLoss(b *testing.B)     { benchExperiment(b, "fig18") }
func BenchmarkFig19IncastLoss(b *testing.B)     { benchExperiment(b, "fig19") }

// ---- §4.3 performance microbenchmarks ----

// benchHost builds a bare host + sampler for hot-path measurement.
func benchHost(cfg core.Config) (*netsim.Host, *core.Sampler, []*netsim.Segment) {
	eng := sim.NewEngine()
	h := netsim.NewHost(eng, netsim.HostConfig{ID: 1, Cores: 4})
	h.SetForwarder(netsim.ForwarderFunc(func(*netsim.Segment) {}))
	s := core.NewSampler(h, cfg)
	segs := make([]*netsim.Segment, 64)
	for i := range segs {
		segs[i] = &netsim.Segment{
			Flow: netsim.FlowKey{Src: 7, Dst: 1, SrcPort: uint16(i), DstPort: 80},
			Size: 1500,
		}
		if i%5 == 0 {
			segs[i].Flags |= netsim.FlagCE
		}
		if i%17 == 0 {
			segs[i].Flags |= netsim.FlagRetx
		}
	}
	return h, s, segs
}

// BenchmarkSamplerPerPacket measures the enabled hot path with all features
// (the paper measures 88 ns on a 1.6 GHz Skylake).
func BenchmarkSamplerPerPacket(b *testing.B) {
	_, s, segs := benchHost(core.DefaultConfig())
	s.Enable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Handle(0, i&3, netsim.Ingress, segs[i&63])
	}
}

// BenchmarkSamplerPerPacketNoFlows omits the connection sketch (84 ns in the
// paper).
func BenchmarkSamplerPerPacketNoFlows(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.CountFlows = false
	_, s, segs := benchHost(cfg)
	s.Enable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Handle(0, i&3, netsim.Ingress, segs[i&63])
	}
}

// BenchmarkSamplerDisabled measures the installed-but-disabled fast path
// (7 ns in the paper).
func BenchmarkSamplerDisabled(b *testing.B) {
	_, s, segs := benchHost(core.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Handle(0, i&3, netsim.Ingress, segs[i&63])
	}
}

// BenchmarkSamplerRead measures harvesting the counter maps (a fixed 4.3 ms
// in the paper, independent of traffic).
func BenchmarkSamplerRead(b *testing.B) {
	_, s, segs := benchHost(core.DefaultConfig())
	s.Enable()
	for i := 0; i < 10000; i++ {
		s.Handle(0, i&3, netsim.Ingress, segs[i&63])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Read()
	}
}

// BenchmarkPcapLikeBaseline measures the tcpdump-style per-packet cost the
// paper compares against (271 ns of CPU per packet in their measurement).
func BenchmarkPcapLikeBaseline(b *testing.B) {
	p := core.NewPcapLike(100, 4096)
	seg := &netsim.Segment{
		Flow: netsim.FlowKey{Src: 7, Dst: 1, SrcPort: 9, DstPort: 80},
		Size: 1500,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Handle(sim.Time(i), 0, netsim.Ingress, seg)
		if p.Captured&4095 == 0 {
			p.Drain()
		}
	}
}

// ---- ablations ----

// ablationRack runs a fixed incast-heavy workload against a configurable
// switch for a fixed span and returns (discards, enqueued).
func ablationRack(swCfg switchsim.Config) (int64, int64) {
	rack := testbed.NewRack(testbed.RackConfig{
		Servers: swCfg.Ports,
		Seed:    777,
		Switch:  swCfg,
	})
	rng := rack.RNG.Fork(9)
	for s := 0; s < swCfg.Ports; s++ {
		p := workload.Cache
		if s%2 == 1 {
			p = workload.Web
		}
		workload.Install(rack, s, p, rng.Fork(uint64(s)))
	}
	rack.Eng.RunUntil(400 * sim.Millisecond)
	t := rack.Switch.Totals()
	return t.DiscardSegments, t.EnqueuedSegments
}

// BenchmarkAblationAlpha sweeps the DT parameter and reports the loss rate,
// quantifying the §9 buffer-sharing implication.
func BenchmarkAblationAlpha(b *testing.B) {
	for _, alpha := range []float64{0.25, 0.5, 1, 2, 4} {
		b.Run(fmt.Sprintf("alpha=%.2f", alpha), func(b *testing.B) {
			var lossPPM float64
			for i := 0; i < b.N; i++ {
				cfg := switchsim.DefaultConfig(16)
				cfg.Alpha = alpha
				d, e := ablationRack(cfg)
				lossPPM = 1e6 * float64(d) / float64(e+1)
			}
			b.ReportMetric(lossPPM, "loss_ppm")
		})
	}
}

// BenchmarkAblationECNThreshold sweeps the static marking threshold.
func BenchmarkAblationECNThreshold(b *testing.B) {
	for _, kb := range []int{30, 120, 480} {
		b.Run(fmt.Sprintf("thresh=%dKB", kb), func(b *testing.B) {
			var lossPPM float64
			for i := 0; i < b.N; i++ {
				cfg := switchsim.DefaultConfig(16)
				cfg.ECNThreshold = kb << 10
				d, e := ablationRack(cfg)
				lossPPM = 1e6 * float64(d) / float64(e+1)
			}
			b.ReportMetric(lossPPM, "loss_ppm")
		})
	}
}

// BenchmarkAblationSharingPolicy compares the production dynamic-threshold
// policy against the static-partition and complete-sharing bounds of the
// design space (§9 / related-work discussion).
func BenchmarkAblationSharingPolicy(b *testing.B) {
	for _, pol := range []switchsim.Policy{
		switchsim.PolicyDT, switchsim.PolicyStatic, switchsim.PolicyComplete,
	} {
		b.Run(pol.String(), func(b *testing.B) {
			var lossPPM float64
			for i := 0; i < b.N; i++ {
				cfg := switchsim.DefaultConfig(16)
				cfg.Policy = pol
				d, e := ablationRack(cfg)
				lossPPM = 1e6 * float64(d) / float64(e+1)
			}
			b.ReportMetric(lossPPM, "loss_ppm")
		})
	}
}

// BenchmarkAblationSketchSize sweeps the bitmap width and reports the mean
// relative estimation error at 60 concurrent flows.
func BenchmarkAblationSketchSize(b *testing.B) {
	for _, bits := range []int{64, 128, 256, 1024} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			rng := sim.NewRNG(42)
			const n = 60
			var relErr float64
			for i := 0; i < b.N; i++ {
				v := sketch.NewVar(bits)
				for j := 0; j < n; j++ {
					v.Insert(rng.Uint64())
				}
				relErr += math.Abs(v.Estimate()-n) / n
			}
			b.ReportMetric(relErr/float64(b.N), "rel_err")
		})
	}
}

// BenchmarkAblationInterval compares sampling intervals on a GRO-enabled
// host, reproducing the §4.6 observation that 100 µs buckets can show rates
// above line speed because a coalesced 64 KB segment is credited to one
// bucket.
func BenchmarkAblationInterval(b *testing.B) {
	intervals := []struct {
		name string
		d    sim.Time
	}{
		{"100us", 100 * sim.Microsecond},
		{"1ms", sim.Millisecond},
		{"10ms", 10 * sim.Millisecond},
	}
	for _, iv := range intervals {
		b.Run(iv.name, func(b *testing.B) {
			var peak float64
			for i := 0; i < b.N; i++ {
				peak = peakUtilizationAt(iv.d)
			}
			b.ReportMetric(peak, "peak_util")
		})
	}
}

// peakUtilizationAt runs one bulk transfer against a GRO-enabled receiver
// sampled at the given interval and returns the maximum per-bucket
// utilization observed. With 64 KB coalescing, sub-millisecond buckets can
// exceed 1.0.
func peakUtilizationAt(interval sim.Time) float64 {
	rack := testbed.NewRack(testbed.RackConfig{Servers: 2, Seed: 5})
	rack.Servers[0].EnableGRO(20 * sim.Microsecond)
	s := core.NewSampler(rack.Servers[0], core.Config{Interval: interval, Buckets: 2000})
	s.Attach()
	s.Enable()
	c := rack.RemoteEPs[0].Connect(rack.Servers[0].ID, 80, transport.Options{})
	c.Send(16 << 20)
	rack.Eng.RunUntil(200 * sim.Millisecond)
	run := s.Read()
	peak := 0.0
	for i := 0; i < run.Buckets; i++ {
		if u := run.Utilization(i); u > peak {
			peak = u
		}
	}
	return peak
}

// BenchmarkAblationSharedCounter quantifies the cost the per-CPU counter
// design avoids: concurrent writers incrementing one shared atomic array
// versus per-CPU arrays merged at read time.
func BenchmarkAblationSharedCounter(b *testing.B) {
	const buckets = 2000
	// Packets processed in the same sampling interval land in the SAME
	// bucket on every CPU — that is where cross-CPU contention concentrates.
	// Model it by advancing the bucket index slowly, so concurrent writers
	// mostly collide on one cache line in the shared design.
	b.Run("shared-atomic", func(b *testing.B) {
		var counters [buckets]atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				counters[(i>>12)%buckets].Add(1500)
				i++
			}
		})
	})
	b.Run("per-cpu", func(b *testing.B) {
		type pad struct {
			counters [buckets]uint64
			_        [64]byte
		}
		var perCPU [16]pad
		var next atomic.Int32
		b.RunParallel(func(pb *testing.PB) {
			me := int(next.Add(1)) & 15
			cpu := &perCPU[me]
			i := 0
			for pb.Next() {
				cpu.counters[(i>>12)%buckets] += 1500
				i++
			}
		})
	})
}
