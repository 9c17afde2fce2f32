package fleet

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// SwitchCounters is the rack switch's full counter state around one sampling
// window: the cumulative totals at window open and at harvest, plus the peak
// single-queue occupancy. The compact SwitchDelta the dataset stores is
// derived from it; the sweep engine consumes the whole thing (ECN marks and
// peaks are counterfactual outputs the dataset format never needed).
type SwitchCounters struct {
	Before, After switchsim.QueueStats
	// PeakQueueBytes is the highest occupancy any single egress queue reached
	// over the rack-hour (warmup included) — the burst-absorption headroom
	// figure sharing-policy counterfactuals compare.
	PeakQueueBytes int
}

// Delta returns the counter movement across the window. PeakBytes is not a
// counter and stays zero; use PeakQueueBytes.
func (c SwitchCounters) Delta() switchsim.QueueStats {
	return switchsim.QueueStats{
		EnqueuedBytes:    c.After.EnqueuedBytes - c.Before.EnqueuedBytes,
		EnqueuedSegments: c.After.EnqueuedSegments - c.Before.EnqueuedSegments,
		DiscardBytes:     c.After.DiscardBytes - c.Before.DiscardBytes,
		DiscardSegments:  c.After.DiscardSegments - c.Before.DiscardSegments,
		ECNMarkedBytes:   c.After.ECNMarkedBytes - c.Before.ECNMarkedBytes,
		ECNMarkedSegs:    c.After.ECNMarkedSegs - c.Before.ECNMarkedSegs,
		DequeuedBytes:    c.After.DequeuedBytes - c.Before.DequeuedBytes,
	}
}

// asDelta reduces the full counters to the compact form the dataset stores.
func (c SwitchCounters) asDelta() SwitchDelta {
	d := c.Delta()
	return SwitchDelta{
		EnqueuedBytes: d.EnqueuedBytes,
		DiscardBytes:  d.DiscardBytes,
		DiscardSegs:   d.DiscardSegments,
	}
}

// SimulateRunFull executes one rack-hour run and returns the aligned SyncRun
// plus the switch's full counter movement. It is deterministic in (cfg, spec,
// hour); cfg.Switch routes the rack through the counterfactual configuration
// when non-zero and through the exact historical path when zero.
func SimulateRunFull(cfg Config, spec RackSpec, hour int) (*core.SyncRun, SwitchCounters, error) {
	cfg = cfg.withDefaults()
	// Overrides the fluid model cannot represent (BShare, ABM, ECN off)
	// silently fall back to full packet fidelity: the dataset stays correct
	// and the digest stays a pure function of the config either way. The
	// host-stack instrument takes the same route: fluid intervals deliver no
	// per-segment events for the tap to timestamp.
	if cfg.Fidelity == FidelityHybrid && cfg.Switch.HybridCompatible() && !cfg.HostStack {
		return simulateRunHybrid(cfg, spec, hour)
	}
	rcfg := testbed.RackConfig{
		Servers: cfg.ServersPerRack,
		Remotes: 4 * cfg.ServersPerRack,
		Seed:    spec.Seed ^ (uint64(hour+1) * 0x9e3779b97f4a7c15),
	}
	if !cfg.Switch.IsZero() {
		rcfg.Switch = cfg.Switch.Apply(switchsim.DefaultConfig(cfg.ServersPerRack))
	}
	rack := testbed.NewRack(rcfg)
	scale := DiurnalFactor(hour) * spec.Intensity
	profiles := make([]workload.Profile, len(spec.Profiles))
	for i, p := range spec.Profiles {
		profiles[i] = p.Scale(scale)
	}
	if _, err := workload.InstallRack(rack, profiles, rack.RNG.Fork(0x10AD)); err != nil {
		return nil, SwitchCounters{}, fmt.Errorf("rack %s/%d hour %d: %w", spec.Region, spec.ID, hour, err)
	}

	ctrl := core.NewController(rack, core.Config{
		Interval: cfg.Interval, Buckets: cfg.Buckets, CountFlows: true,
		HostStack: cfg.HostStack,
	})
	if err := ctrl.Schedule(warmup); err != nil {
		return nil, SwitchCounters{}, fmt.Errorf("rack %s/%d hour %d: %w", spec.Region, spec.ID, hour, err)
	}

	var sc SwitchCounters
	rack.Eng.At(warmup, func() { sc.Before = rack.Switch.Totals() })
	rack.Eng.RunUntil(ctrl.HarvestAt(warmup) + sim.Millisecond)
	sc.After = rack.Switch.Totals()
	if !ctrl.Done() {
		// Harvest RPCs are still retrying (lossy control plane or crashed
		// hosts); let the straggler window play out. The switch counters were
		// already captured at the nominal harvest point.
		rack.Eng.RunUntil(ctrl.HarvestDeadline(warmup) + sim.Millisecond)
	}
	sc.PeakQueueBytes = rack.Switch.PeakQueueBytes()

	sr, err := ctrl.Result()
	if err != nil {
		return nil, SwitchCounters{}, fmt.Errorf("rack %s/%d hour %d: %w", spec.Region, spec.ID, hour, err)
	}
	return sr, sc, nil
}

// RackVisitor consumes one rack's raw simulated hours. VisitRun is called
// once per scheduled hour, in schedule order, from the worker goroutine that
// owns the rack; Done is called after the last hour. A visitor is used by
// exactly one goroutine; distinct racks' visitors run concurrently. A rack
// abandoned mid-flight (context cancellation, or a VisitRun error) gets no
// further call, so a visitor holds nothing but memory until Done.
type RackVisitor interface {
	// VisitRun receives one rack-hour. When the simulation itself failed,
	// simErr is non-nil and sr/sc are zero — record the gap and keep going,
	// or return an error to abort the whole stream.
	VisitRun(hour int, sr *core.SyncRun, sc SwitchCounters, simErr error) error
	// Done finishes the rack. It is not called when a VisitRun aborted.
	Done() error
}

// VisitOpts configures a streaming visit over the fleet's rack-hours.
type VisitOpts struct {
	// Skip, if non-nil, reports racks whose results already exist; they are
	// not simulated and their visitor is never created. This is the resume
	// hook for both the sharded dataset and the sweep point store.
	Skip func(region string, id int) bool
	// Start opens the visitor for one rack.
	Start func(spec *RackSpec) (RackVisitor, error)
}

// VisitStream simulates the full schedule rack by rack, handing each raw
// rack-hour (SyncRun plus full switch counters) to the rack's visitor as it
// finishes. It is the layer below GenerateStream: the dataset pipeline
// summarizes what it sees into RunSummary records, while the sweep engine
// computes counterfactual metrics the dataset format doesn't carry. Racks
// are distributed over cfg.Workers long-lived workers; the set of visited
// runs is independent of worker count and scheduling, only completion order
// varies. The first visitor or setup error aborts the stream (simulation
// failures of individual rack-hours are delivered to VisitRun, not fatal).
//
// Cancelling ctx aborts the stream between rack-hours: in-flight racks are
// abandoned (their visitors never see Done), no further racks start,
// and VisitStream returns ctx.Err(). This is the clean-interruption path —
// Ctrl-C and distributed-worker drain ride on it instead of kill + resume.
func VisitStream(ctx context.Context, cfg Config, opts VisitOpts) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if opts.Start == nil {
		return fmt.Errorf("fleet: VisitStream needs a Start hook")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	racks := BuildRacks(cfg)

	var todo []int
	for i := range racks {
		if opts.Skip != nil && opts.Skip(racks[i].Region, racks[i].ID) {
			continue
		}
		todo = append(todo, i)
	}

	workers := cfg.Workers
	if workers > len(todo) {
		workers = len(todo)
	}
	if workers < 1 {
		workers = 1
	}

	var (
		mu       sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	aborted := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}

	idxc := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ri := range idxc {
				if aborted() || ctx.Err() != nil {
					continue
				}
				spec := &racks[ri]
				v, err := opts.Start(spec)
				if err != nil {
					setErr(err)
					continue
				}
				for _, h := range cfg.Hours {
					if err = ctx.Err(); err != nil {
						break
					}
					sr, sc, simErr := SimulateRunFull(cfg, *spec, h)
					if err = v.VisitRun(h, sr, sc, simErr); err != nil {
						break
					}
				}
				if err == nil {
					err = v.Done()
				}
				if err != nil {
					setErr(err)
				}
			}
		}()
	}
	for _, ri := range todo {
		idxc <- ri
	}
	close(idxc)
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}
