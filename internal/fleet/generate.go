package fleet

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

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

// GenerateStream simulates the full schedule rack by rack, streaming each
// completed rack-hour into the rack's sink as it finishes. Every pending rack
// is a lane of one step (RunLanes), so min(cfg.Workers, pending racks)
// workers each take the next rack in BuildRacks order. A rack's busy-hour
// statistic is picked as its hours arrive (BusyPick), so a worker holds one
// rack-hour at a time and no rack's summaries outlive its sink's Run calls.
// The set of produced runs is independent of worker count and scheduling;
// only completion order varies. The first sink or setup error aborts the
// generation: no further rack begins, and the failed rack's sink never sees
// Commit (simulation failures of individual rack-hours are recorded in the
// run, not fatal).
//
// Cancelling ctx aborts between rack-hours: in-flight racks are abandoned
// (their sinks never see Commit), no further racks begin, and GenerateStream
// returns ctx.Err(). This is the clean-interruption path — Ctrl-C and
// distributed-worker drain ride on it instead of kill + resume.
func GenerateStream(ctx context.Context, cfg Config, opts StreamOpts) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if opts.Begin == nil {
		return fmt.Errorf("fleet: GenerateStream needs a Begin hook")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	racks := BuildRacks(cfg)
	var todo []*RackSpec
	for i := range racks {
		if opts.Skip == nil || !opts.Skip(racks[i].Region, racks[i].ID) {
			todo = append(todo, &racks[i])
		}
	}
	return RunLanes(ctx, cfg.Workers, len(todo), 1,
		func(l, _ int) error { return generateRack(ctx, cfg, todo[l], opts.Begin) },
		func(int) error { return nil })
}

// RunLanes runs every lane 0…lanes−1 through steps 0…steps−1, in order, on
// min(workers, lanes) goroutines: a free worker takes the free lane that is
// furthest behind, the lowest lane on a tie, and runs its next step. A lane's
// steps never overlap and each happens before the next, so state a lane owns
// needs no lock. Once every lane has finished step k, passed(k) runs, one
// call at a time and in step order, after everything those steps wrote. The
// first error from step or passed stops new work — steps in flight finish,
// no step or passed call starts after it — and is returned; otherwise a
// cancelled ctx stops new work the same way and RunLanes returns ctx.Err().
func RunLanes(ctx context.Context, workers, lanes, steps int, step func(lane, k int) error, passed func(k int) error) error {
	var (
		mu       sync.Mutex
		firstErr error
		next     = make([]int, lanes) // each lane's next step
		busy     = make([]bool, lanes)
		done     int  // steps passed, a prefix of 0…steps−1
		passing  bool // a worker is inside passed; only one passes at a time
	)
	// take claims the free lane that is furthest behind, or returns -1 when
	// no free lane has a step left.
	take := func() int {
		best := -1
		for l := range next {
			if !busy[l] && next[l] < steps && (best < 0 || next[l] < next[best]) {
				best = l
			}
		}
		if best >= 0 {
			busy[best] = true
		}
		return best
	}

	var wg sync.WaitGroup
	for range min(workers, lanes) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for firstErr == nil && ctx.Err() == nil {
				l := take()
				if l < 0 {
					return
				}
				k := next[l]
				mu.Unlock()
				err := step(l, k)
				mu.Lock()
				busy[l] = false
				if err != nil {
					firstErr = cmp.Or(firstErr, err)
					return
				}
				next[l]++
				// slices.Min(next) is the frontier: the first step some lane
				// has not finished.
				for !passing && firstErr == nil && done < slices.Min(next) {
					passing = true
					k := done
					mu.Unlock()
					err := passed(k)
					mu.Lock()
					passing = false
					if err != nil {
						firstErr = cmp.Or(firstErr, err)
						return
					}
					done++
				}
			}
		}()
	}
	wg.Wait()
	return cmp.Or(firstErr, ctx.Err())
}

// generateRack simulates one rack's schedule into the sink begin opens for
// it and commits the rack's metadata after the last hour.
func generateRack(ctx context.Context, cfg Config, spec *RackSpec, begin func(RackMeta) (RackSink, error)) error {
	meta := specMeta(spec)
	sink, err := begin(meta)
	if err != nil {
		return err
	}
	var busy BusyPick
	for _, h := range cfg.Hours {
		if err := ctx.Err(); err != nil {
			return err
		}
		sr, sc, simErr := SimulateRunFull(cfg, *spec, h)
		var run RunSummary
		if simErr != nil {
			// A failed rack-hour is recorded, not fatal: the rest of the
			// day's schedule proceeds and the dataset keeps the gap.
			run = RunSummary{Region: spec.Region, RackID: spec.ID, Hour: h, FailReason: simErr.Error()}
		} else {
			run = summarize(*spec, h, sr, sc.asDelta())
		}
		busy.Add(h, run.AvgContention)
		if err := sink.Run(run); err != nil {
			return err
		}
	}
	meta.BusyAvgContention = busy.Avg()
	return sink.Commit(meta)
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
// with SimulateRunFull to regenerate a raw run).
func FindRack(cfg Config, region string, id int) (RackSpec, bool) {
	for _, spec := range BuildRacks(cfg) {
		if spec.Region == region && spec.ID == id {
			return spec, true
		}
	}
	return RackSpec{}, false
}
