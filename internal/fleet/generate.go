package fleet

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/sim"
)

// warmup is how long traffic runs before the sampler window opens, letting
// persistent connections establish and congestion windows adapt.
const warmup = 150 * sim.Millisecond

// BurstRec is the compact per-burst record kept in the dataset (the raw
// SyncRun series are ~2 MB per run and are regenerated on demand instead).
type BurstRec struct {
	Server        int16
	Len           int16 // samples (milliseconds at 1 ms sampling)
	Volume        float32
	AvgConns      float32
	MaxContention int16
	CAFL          int16 // contention at first loss (lossy bursts only)
	Lossy         bool
}

// SwitchDelta is the rack switch's counter movement across the sampling
// window, the simulated analog of the per-minute production counters.
type SwitchDelta struct {
	EnqueuedBytes int64
	DiscardBytes  int64
	DiscardSegs   int64
}

// RunSummary is one rack-hour SyncMillisampler run reduced to what the
// analyses need.
type RunSummary struct {
	Region     string
	RackID     int
	Hour       int
	Samples    int
	IntervalNs int64

	// Collected reports whether the rack-hour produced an aligned run at
	// all; when false, FailReason says why and the statistics are zero. A
	// failed collection is recorded, not dropped: the day's schedule keeps
	// going and the gap stays visible in the dataset.
	Collected  bool
	FailReason string
	// HostsOK / HostsDegraded summarize per-host collection health
	// (degraded = truncated, missing, or unsynced hosts).
	HostsOK       int
	HostsDegraded int

	AvgContention float64
	P90Contention float64
	MinActive     int
	HasActive     bool
	ShareDrop     float64
	ShareDropOK   bool

	ServerRuns []analysis.ServerRun
	Bursts     []BurstRec

	Switch SwitchDelta
	// IngressPerMin extrapolates the window's rack ingress volume to a
	// one-minute granularity, mirroring production switch counters.
	IngressPerMin int64

	// HostStack is the host-stack latency reduction; nil unless the run was
	// generated with Config.HostStack. The omitempty keeps knob-off
	// summaries byte-identical to pre-knob datasets, preserving every
	// golden digest.
	HostStack *HostStackRec `json:",omitempty"`
}

// WindowSeconds returns the aligned run duration in seconds.
func (r *RunSummary) WindowSeconds() float64 {
	return float64(r.Samples) * float64(r.IntervalNs) / 1e9
}

// RackMeta is per-rack metadata plus the measured classification.
type RackMeta struct {
	Region        string
	ID            int
	MLDominated   bool
	Intensity     float64
	DistinctTasks int
	DominantShare float64

	// BusyAvgContention is the rack's average contention in the busy-hour
	// run, the statistic racks are classified by.
	BusyAvgContention float64
	Class             Class
}

// SimulateRun executes one rack-hour run and returns the aligned SyncRun
// plus the switch counter delta. It is deterministic in (cfg, spec, hour),
// which is how raw example runs are regenerated without storing them. The
// full-counter form (ECN marks, peaks) is SimulateRunFull.
func SimulateRun(cfg Config, spec RackSpec, hour int) (*core.SyncRun, SwitchDelta, error) {
	sr, sc, err := SimulateRunFull(cfg, spec, hour)
	if err != nil {
		return nil, SwitchDelta{}, err
	}
	return sr, sc.asDelta(), nil
}

// sat16 converts a non-negative count to int16, saturating at MaxInt16
// instead of wrapping negative. Config.Validate bounds the configurations
// that could overflow, but the clamp keeps a hand-built config from silently
// corrupting the dataset.
func sat16(v int) int16 {
	if v > math.MaxInt16 {
		return math.MaxInt16
	}
	if v < math.MinInt16 {
		return math.MinInt16
	}
	return int16(v)
}

// summarize reduces a run to its RunSummary.
func summarize(spec RackSpec, hour int, sr *core.SyncRun, delta SwitchDelta) RunSummary {
	ra := analysis.Analyze(sr, analysis.DefaultOptions())
	rs := RunSummary{
		Region:     spec.Region,
		RackID:     spec.ID,
		Hour:       hour,
		Samples:    sr.Samples,
		IntervalNs: int64(sr.Interval),

		Collected:     true,
		HostsOK:       sr.Health.OK,
		HostsDegraded: sr.Health.Degraded(),

		AvgContention: ra.AvgContention(),
		P90Contention: ra.P90Contention(),
		ServerRuns:    ra.Servers,
		Switch:        delta,
	}
	rs.MinActive, rs.HasActive = ra.MinActiveContention()
	rs.ShareDrop, rs.ShareDropOK = ra.BufferShareDrop()
	for _, b := range ra.Bursts {
		rs.Bursts = append(rs.Bursts, BurstRec{
			Server:        sat16(b.Server),
			Len:           sat16(b.Len()),
			Volume:        float32(b.Volume),
			AvgConns:      float32(b.AvgConns),
			MaxContention: sat16(b.MaxContention),
			CAFL:          sat16(b.ContentionAtFirstLoss),
			Lossy:         b.Lossy,
		})
	}
	if w := rs.WindowSeconds(); w > 0 {
		rs.IngressPerMin = int64(float64(delta.EnqueuedBytes) * 60 / w)
	}
	if sr.HostStack != nil {
		rs.HostStack = hostStackRec(sr.HostStack)
	}
	return rs
}

// RackSink consumes one rack's results as they are produced. Run is called
// once per scheduled hour, in schedule order, from the worker goroutine that
// owns the rack; Commit is called after the last hour with the rack's
// finished metadata (BusyAvgContention set, Class not — classification needs
// every rack and happens when the store is finalized). A sink is used by
// exactly one goroutine; distinct racks' sinks run concurrently.
// A rack abandoned mid-flight (cancellation or error) never reaches Commit,
// so a sink holds nothing but memory until then.
type RackSink interface {
	Run(RunSummary) error
	Commit(RackMeta) error
}

// StreamOpts configures a streaming generation.
type StreamOpts struct {
	// Skip, if non-nil, reports racks whose results already exist; they are
	// not simulated and their sink is never created. This is the resume
	// hook: the sharded pipeline skips digest-verified completed shards.
	Skip func(region string, id int) bool
	// Begin opens the sink for one rack. The meta carries the placement
	// facts (region, id, ML domination, intensity, task stats); measured
	// fields are zero until Commit.
	Begin func(meta RackMeta) (RackSink, error)
}

// specMeta derives the placement metadata of a rack spec.
func specMeta(spec *RackSpec) RackMeta {
	return RackMeta{
		Region:        spec.Region,
		ID:            spec.ID,
		MLDominated:   spec.MLDominated,
		Intensity:     spec.Intensity,
		DistinctTasks: spec.DistinctTasks(),
		DominantShare: spec.DominantTaskShare(),
	}
}

// genVisitor adapts a RackSink to the raw visitor layer: it summarizes each
// rack-hour into the compact dataset record and finishes the rack's metadata
// at Done.
type genVisitor struct {
	spec *RackSpec
	sink RackSink
	meta RackMeta
	runs []RunSummary
}

func (v *genVisitor) VisitRun(hour int, sr *core.SyncRun, sc SwitchCounters, simErr error) error {
	var run RunSummary
	if simErr != nil {
		// A failed rack-hour is recorded, not fatal: the rest of the day's
		// schedule proceeds and the dataset keeps the gap.
		run = RunSummary{
			Region:     v.spec.Region,
			RackID:     v.spec.ID,
			Hour:       hour,
			FailReason: simErr.Error(),
		}
	} else {
		run = summarize(*v.spec, hour, sr, sc.asDelta())
	}
	v.runs = append(v.runs, run)
	return v.sink.Run(run)
}

func (v *genVisitor) Done() error {
	v.meta.BusyAvgContention = busyContention(v.runs)
	return v.sink.Commit(v.meta)
}

// GenerateStream simulates the full schedule rack by rack, streaming each
// completed rack-hour into the rack's sink as it finishes. Racks are
// distributed over cfg.Workers long-lived workers, so peak memory per worker
// is one rack-hour plus the summaries of the rack in progress — never the
// fleet. The set of produced runs is independent of worker count and
// scheduling; only completion order varies. The first sink or setup error
// aborts the generation (simulation failures of individual rack-hours are
// recorded in the run, not fatal). Cancelling ctx aborts between rack-hours;
// abandoned sinks never see Commit.
func GenerateStream(ctx context.Context, cfg Config, opts StreamOpts) error {
	cfg = cfg.withDefaults()
	if opts.Begin == nil {
		return fmt.Errorf("fleet: GenerateStream needs a Begin hook")
	}
	return VisitStream(ctx, cfg, VisitOpts{
		Skip: opts.Skip,
		Start: func(spec *RackSpec) (RackVisitor, error) {
			meta := specMeta(spec)
			sink, err := opts.Begin(meta)
			if err != nil {
				return nil, err
			}
			return &genVisitor{
				spec: spec,
				sink: sink,
				meta: meta,
				runs: make([]RunSummary, 0, len(cfg.Hours)),
			}, nil
		},
	})
}

// busyContention picks a rack's busy-hour statistic: the average contention
// of the run closest to BusyHour (first wins on distance ties, matching the
// schedule order the dataset has always used).
func busyContention(runs []RunSummary) float64 {
	best, bestDist := 0.0, 1<<30
	for i := range runs {
		dist := runs[i].Hour - BusyHour
		if dist < 0 {
			dist = -dist
		}
		if dist < bestDist {
			bestDist = dist
			best = runs[i].AvgContention
		}
	}
	return best
}

// ClassifyMetas labels racks from measured busy-hour contention: the top 20%
// of RegA racks become RegA-High, exactly as the paper partitions Figure 9.
// BusyAvgContention must already be set on every meta. It is exported so the
// sharded dataset pipeline can classify from shard metadata at finalize time
// with the identical rule.
func ClassifyMetas(metas []RackMeta) {
	var regA []int
	for i := range metas {
		if metas[i].Region == RegA {
			regA = append(regA, i)
			metas[i].Class = ClassATypical
		} else {
			metas[i].Class = ClassB
		}
	}
	sort.Slice(regA, func(a, b int) bool {
		return metas[regA[a]].BusyAvgContention > metas[regA[b]].BusyAvgContention
	})
	nHigh := len(regA) / 5
	for k := 0; k < nHigh; k++ {
		metas[regA[k]].Class = ClassAHigh
	}
}

// FindRack locates the spec of a rack rebuilt from the same config (useful
// with SimulateRun to regenerate a raw run).
func FindRack(cfg Config, region string, id int) (RackSpec, bool) {
	for _, spec := range BuildRacks(cfg) {
		if spec.Region == region && spec.ID == id {
			return spec, true
		}
	}
	return RackSpec{}, false
}
