package sweep

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/fleet"
)

// Progress describes one newly committed point during Run.
type Progress struct {
	// Index/Label identify the point that just committed.
	Index int
	Label string
	// Done counts committed points including ones resumed from a previous
	// invocation; Total is the grid size.
	Done, Total int
	// Shared counts the point's rack-hours taken from an earlier point's run
	// instead of simulated. Exact at Workers 1; above that it depends on
	// which points happen to run side by side. No result depends on it.
	Shared int
}

// Options tunes a sweep execution. Results never depend on it.
type Options struct {
	// Workers bounds total simulation parallelism (default: the fleet
	// config's worker count). The engine splits it between concurrent points
	// and racks within a point.
	Workers int
	// MaxPoints stops after that many newly computed points, leaving the
	// directory resumable — installment execution for very large grids (and
	// the test hook for interruption). Zero means run to completion.
	MaxPoints int
	// Progress, if non-nil, is called after every newly committed point
	// (from point goroutines; calls are serialized by the store's manifest
	// lock release order but not globally ordered).
	Progress func(Progress)

	// rackHook, test-only, runs before each rack of each point; an error
	// aborts the sweep mid-point, simulating a crash at an arbitrary spot.
	rackHook func(point int, region string, id int) error
	// sharerHook, test-only, sees the invocation's sharer as Run returns.
	sharerHook func(*sharer)
}

// Run executes (or resumes) spec into dir and returns the completed sweep.
// Committed points from a previous invocation are digest-verified and
// skipped; the baseline runs first so its classification can anchor every
// counterfactual; remaining points run across Workers goroutines. A point
// takes the rack-hours an earlier point's run of this invocation proved it
// would reproduce (see sharer), so each distinguishable rack-hour is
// simulated once. A sweep killed at any moment — even mid-point — resumes to
// the byte-identical result, because every point is deterministic in (spec,
// point) and commits atomically. When MaxPoints leaves work behind, Run
// returns ErrIncomplete.
//
// Cancelling ctx aborts between rack-hours with committed points intact;
// re-running the same spec resumes from them.
func Run(ctx context.Context, dir string, spec Spec, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st, err := Create(dir, spec)
	if err != nil {
		return nil, err
	}
	base := spec.Fleet.WithDefaults()
	workers := opts.Workers
	if workers <= 0 {
		workers = base.Workers
	}
	pts := st.Points()
	// The points this invocation computes: uncommitted ones, in grid order,
	// within the MaxPoints budget. Only they may take shared rack-hours.
	pending := st.Pending()
	if opts.MaxPoints > 0 && len(pending) > opts.MaxPoints {
		pending = pending[:opts.MaxPoints]
	}
	sh := newSharer(pts, pending)
	if opts.sharerHook != nil {
		defer opts.sharerHook(sh)
	}
	report := func(index int, label string) {
		if opts.Progress != nil {
			done, total := st.Progress()
			opts.Progress(Progress{Index: index, Label: label, Done: done, Total: total, Shared: sh.sharedBy(index)})
		}
	}
	hookFor := func(point int) func(region string, id int) error {
		if opts.rackHook == nil {
			return nil
		}
		return func(region string, id int) error { return opts.rackHook(point, region, id) }
	}

	// The baseline runs first, alone, at full width: its classification is
	// recorded with its commit and anchors every counterfactual's per-class
	// breakdown.
	if len(pending) > 0 && pending[0] == 0 {
		pending = pending[1:]
		pr, classes, err := runPoint(ctx, base, pts[0].Point, workers, nil, hookFor(0), sh)
		if err != nil {
			return nil, err
		}
		if err := st.CommitPoint(pr, classes); err != nil {
			return nil, err
		}
		report(0, pts[0].Label)
	}
	classes := st.Classes()
	if classes == nil {
		return nil, fmt.Errorf("sweep: %s has a committed baseline but no classification", dir)
	}

	if len(pending) > 0 {
		// Split the worker budget: up to Workers points in flight, each
		// simulating its racks on the remaining share. Results are identical
		// for any split; only wall-clock changes.
		pointConc := workers
		if pointConc > len(pending) {
			pointConc = len(pending)
		}
		if pointConc < 1 {
			pointConc = 1
		}
		perPoint := workers / pointConc
		if perPoint < 1 {
			perPoint = 1
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
		for w := 0; w < pointConc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pi := range idxc {
					if aborted() || ctx.Err() != nil {
						continue
					}
					pt := pts[pi].Point
					pr, _, err := runPoint(ctx, base, pt, perPoint, classes, hookFor(pi), sh)
					if err != nil {
						setErr(err)
						continue
					}
					if err := st.CommitPoint(pr, nil); err != nil {
						setErr(err)
						continue
					}
					report(pi, pt.Label)
				}
			}()
		}
		for _, pi := range pending {
			idxc <- pi
		}
		close(idxc)
		wg.Wait()
		if firstErr == nil {
			firstErr = ctx.Err()
		}
		if firstErr != nil {
			return nil, firstErr
		}
	}

	if done, total := st.Progress(); done < total {
		return nil, fmt.Errorf("%w: %d of %d points committed (re-run the same spec to continue)",
			ErrIncomplete, done, total)
	}
	if err := st.Finalize(); err != nil {
		return nil, err
	}
	return Open(dir)
}

// rackAcc accumulates one rack's contribution to a point, owned by the
// worker goroutine simulating the rack.
type rackAcc struct {
	tally    Tally
	busyAvg  float64
	bestDist int
}

// hourOutcome is one rack-hour reduced to what a point keeps of it — all a
// point needs of a rack-hour another point simulated.
type hourOutcome struct {
	tally  Tally // Runs and FailedRuns are fold's concern
	avg    float64
	failed bool
}

// reduce turns one raw rack-hour into its outcome.
func reduce(sr *core.SyncRun, sc fleet.SwitchCounters, simErr error) hourOutcome {
	if simErr != nil {
		return hourOutcome{failed: true}
	}
	t, avg := tallyRun(sr, sc)
	return hourOutcome{tally: t, avg: avg}
}

// fold adds one rack-hour's outcome to the rack.
func (a *rackAcc) fold(hour int, o hourOutcome) {
	a.tally.Runs++
	if o.failed {
		// A failed rack-hour is a recorded gap, exactly as in the dataset:
		// it still competes for the busy-hour slot with zero contention.
		a.tally.FailedRuns++
	} else {
		a.tally.add(o.tally)
	}
	// Busy-hour pick mirrors the dataset's classification input (hours
	// arrive in schedule order).
	if dist := fleet.BusyDist(hour); dist < a.bestDist {
		a.bestDist = dist
		a.busyAvg = o.avg
	}
}

// tallyVisitor reduces a rack's raw hours into its accumulator.
type tallyVisitor struct{ acc *rackAcc }

func (v *tallyVisitor) VisitRun(hour int, sr *core.SyncRun, sc fleet.SwitchCounters, simErr error) error {
	v.acc.fold(hour, reduce(sr, sc, simErr))
	return nil
}

func (v *tallyVisitor) Done() error { return nil }

// ComputePoint simulates one grid point of a sweep and returns its result —
// the unit of work a distributed worker computes. classes must be the
// baseline classification for every non-baseline point and nil exactly for
// the baseline, which classifies the racks itself and returns the mapping.
// The result is deterministic in (base, pt, classes); workers only sets
// simulation parallelism.
func ComputePoint(ctx context.Context, base fleet.Config, pt Point, workers int, classes map[string]string) (*PointResult, map[string]string, error) {
	return runPoint(ctx, base, pt, workers, classes, nil, nil)
}

// runPoint simulates every rack-hour of the fleet under one override and
// folds the result per rack in BuildRacks order, so the PointResult is
// byte-identical for any worker count. classes is nil exactly for the
// baseline, which classifies the racks itself and returns the mapping. With a
// sharer, the point takes the rack-hours earlier points' runs proved it
// would reproduce, and its own runs carry shadows for the points still to
// start; without one it simulates every rack-hour itself.
func runPoint(ctx context.Context, base fleet.Config, pt Point, workers int, classes map[string]string, hook func(region string, id int) error, sh *sharer) (*PointResult, map[string]string, error) {
	cfg := base
	cfg.Switch = pt.Override
	cfg.Workers = workers
	racks := fleet.BuildRacks(cfg)

	slots := make([]rackAcc, len(racks))
	idx := make(map[string]int, len(racks))
	for i := range racks {
		slots[i].bestDist = 1 << 30
		idx[rackKey(racks[i].Region, racks[i].ID)] = i
	}
	opts := fleet.VisitOpts{
		Start: func(spec *fleet.RackSpec) (fleet.RackVisitor, error) {
			if hook != nil {
				if err := hook(spec.Region, spec.ID); err != nil {
					return nil, err
				}
			}
			return &tallyVisitor{acc: &slots[idx[rackKey(spec.Region, spec.ID)]]}, nil
		},
	}
	if sh != nil {
		opts.Deliver = sh.deliver(cfg, pt.Index)
	}
	if err := fleet.VisitStream(ctx, cfg, opts); err != nil {
		return nil, nil, err
	}

	var outClasses map[string]string
	if classes == nil {
		// Baseline: classify racks from measured busy-hour contention with
		// the exact rule the dataset pipeline uses.
		metas := make([]fleet.RackMeta, len(racks))
		for i := range racks {
			metas[i] = fleet.RackMeta{
				Region:            racks[i].Region,
				ID:                racks[i].ID,
				BusyAvgContention: slots[i].busyAvg,
			}
		}
		fleet.ClassifyMetas(metas)
		outClasses = make(map[string]string, len(metas))
		for i := range metas {
			outClasses[rackKey(metas[i].Region, metas[i].ID)] = metas[i].Class.String()
		}
		classes = outClasses
	}

	pr := &PointResult{Point: pt, Classes: map[string]Tally{}}
	for i := range racks {
		key := rackKey(racks[i].Region, racks[i].ID)
		cls, ok := classes[key]
		if !ok {
			return nil, nil, fmt.Errorf("sweep: rack %s missing from the baseline classification", key)
		}
		pr.Total.add(slots[i].tally)
		ct := pr.Classes[cls]
		ct.add(slots[i].tally)
		pr.Classes[cls] = ct
	}
	return pr, outClasses, nil
}
