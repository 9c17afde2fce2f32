package sweep

import (
	"cmp"
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
	// instead of simulated. It is the same at every Workers; no result
	// depends on it.
	Shared int
}

// Options tunes a sweep execution. Results never depend on it.
type Options struct {
	// Workers is how many racks simulate at once (default: the fleet
	// config's worker count).
	Workers int
	// MaxPoints stops after that many newly computed points, leaving the
	// directory resumable — installment execution for very large grids (and
	// the test hook for interruption). Zero means run to completion.
	MaxPoints int
	// Progress, if non-nil, is called after every newly committed point, one
	// call at a time and in grid order.
	Progress func(Progress)

	// rackHook, test-only, runs before each rack of each point; an error
	// aborts the sweep mid-point, simulating a crash at an arbitrary spot.
	rackHook func(point int, region string, id int) error
	// heldHook, test-only, sees how many shared outcomes no point took as
	// the engine returns.
	heldHook func(held int)
}

// Run executes (or resumes) spec into dir and returns the completed sweep.
// Committed points from a previous invocation are digest-verified and
// skipped; the rest run through computePoints, which commits them one by one
// in grid order, the baseline first with the classification that anchors
// every counterfactual. Each distinguishable rack-hour is simulated once
// among the points this invocation computes. A sweep killed at any moment —
// even mid-point — resumes to the byte-identical result, because every point
// is deterministic in (spec, point) and commits atomically. When MaxPoints
// leaves work behind, Run returns ErrIncomplete.
//
// Cancelling ctx aborts between rack-hours with committed points intact;
// re-running the same spec resumes from them.
func Run(ctx context.Context, dir string, spec Spec, opts Options) (*Result, error) {
	st, err := Create(dir, spec)
	if err != nil {
		return nil, err
	}
	base := spec.Fleet.WithDefaults()
	if opts.Workers > 0 {
		base.Workers = opts.Workers
	}
	entries := st.Points()
	// The points this invocation computes: uncommitted ones, in grid order,
	// within the MaxPoints budget.
	pending := st.Pending()
	if opts.MaxPoints > 0 && len(pending) > opts.MaxPoints {
		pending = pending[:opts.MaxPoints]
	}
	pts := make([]Point, len(pending))
	for i, pi := range pending {
		pts[i] = entries[pi].Point
	}
	classes := st.Classes()
	if classes == nil && (len(pts) == 0 || pts[0].Index != 0) {
		return nil, fmt.Errorf("sweep: %s has a committed baseline but no classification", dir)
	}
	err = computePoints(ctx, base, pts, classes, opts, func(pr *PointResult, classes map[string]string, shared int) error {
		if err := st.CommitPoint(pr, classes); err != nil {
			return err
		}
		if opts.Progress != nil {
			done, total := st.Progress()
			opts.Progress(Progress{Index: pr.Index, Label: pr.Label, Done: done, Total: total, Shared: shared})
		}
		return nil
	})
	if err != nil {
		return nil, err
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
// worker holding the rack's lane.
type rackAcc struct {
	tally  Tally
	busy   fleet.BusyPick
	shared int // rack-hours taken from an earlier point's run
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
	a.busy.Add(hour, o.avg)
}

// ComputePoint simulates one grid point of a sweep and returns its result —
// the unit of work a distributed worker computes. classes must be the
// baseline classification for every non-baseline point and nil exactly for
// the baseline, which classifies the racks itself and returns the mapping.
// The result is deterministic in (base, pt, classes); workers only sets how
// many racks simulate at once.
func ComputePoint(ctx context.Context, base fleet.Config, pt Point, workers int, classes map[string]string) (pr *PointResult, outClasses map[string]string, err error) {
	base.Workers = workers
	err = computePoints(ctx, base, []Point{pt}, classes, Options{}, func(p *PointResult, c map[string]string, _ int) error {
		pr, outClasses = p, c
		return nil
	})
	return pr, outClasses, err
}

// lane is one rack's walk through the pending points in grid order. Only the
// worker holding the lane touches outcomes, so the map needs no lock.
type lane struct {
	rack int // index into the racks and into each point's accumulators
	next int // position in pts of the next point to run
	busy bool
	// outcomes holds the rack-hours an earlier point's run proved a later
	// point would reproduce, until that point takes them.
	outcomes map[laneHour]hourOutcome
}

// laneHour names one of a lane's rack-hours as a given point would run it.
type laneHour struct{ point, hour int } // positions in pts and in Hours

// computePoints simulates pts — the points of one invocation, in grid order —
// and hands each to commit once it is complete, one call at a time and in
// grid order. Every rack is a lane that runs its hours for one point after
// another; base.Workers workers each take the free lane that is furthest
// behind, so a point commits as soon as every lane has passed it. A rack-hour
// a lane simulates carries a switchsim.Shadow for every later point that has
// no outcome for it yet (fleet.SimulateRunShadowed); a shadow that never
// disagreed with an admission decision proves that point's run would be this
// one, byte for byte, so the point takes the reduced outcome when the lane
// reaches it instead of simulating. Which rack-hours are shared therefore
// depends on the grid alone, never on the width, and memory is bounded by
// per-rack accumulators and reduced outcomes, never by SyncRuns.
//
// Each PointResult folds its racks in BuildRacks order, so it is
// byte-identical for any width. classes is nil exactly when pts[0] is the
// baseline: its commit classifies the racks and passes the mapping on, and
// every later point aggregates by it.
func computePoints(ctx context.Context, base fleet.Config, pts []Point, classes map[string]string, opts Options,
	commit func(pr *PointResult, classes map[string]string, shared int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	base = base.WithDefaults()
	for _, pt := range pts {
		cfg := base
		cfg.Switch = pt.Override
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	racks := fleet.BuildRacks(base)
	lanes := make([]lane, len(racks))
	for r := range lanes {
		lanes[r] = lane{rack: r, outcomes: map[laneHour]hourOutcome{}}
	}
	if opts.heldHook != nil {
		defer func() {
			held := 0
			for r := range lanes {
				held += len(lanes[r].outcomes)
			}
			opts.heldHook(held)
		}()
	}
	// accs[p][r] is rack r's contribution to point p, written by r's lane
	// and read by p's commit once every lane has passed p.
	accs := make([][]rackAcc, len(pts))
	for p := range accs {
		accs[p] = make([]rackAcc, len(racks))
	}

	// step runs lane l's rack for point l.next.
	step := func(l *lane) error {
		p, spec := l.next, &racks[l.rack]
		if opts.rackHook != nil {
			if err := opts.rackHook(pts[p].Index, spec.Region, spec.ID); err != nil {
				return err
			}
		}
		cfg := base
		cfg.Switch = pts[p].Override
		acc := &accs[p][l.rack]
		var (
			qs   []int
			alts []fleet.SwitchOverride
		)
		for hi, h := range cfg.Hours {
			if err := ctx.Err(); err != nil {
				return err
			}
			if out, ok := l.outcomes[laneHour{p, hi}]; ok {
				delete(l.outcomes, laneHour{p, hi})
				acc.shared++
				acc.fold(h, out)
				continue
			}
			qs, alts = qs[:0], alts[:0]
			for q := p + 1; q < len(pts); q++ {
				if _, has := l.outcomes[laneHour{q, hi}]; !has {
					qs = append(qs, q)
					alts = append(alts, pts[q].Override)
				}
			}
			sr, sc, same, simErr := fleet.SimulateRunShadowed(cfg, *spec, h, alts)
			out := reduce(sr, sc, simErr)
			for i, q := range qs {
				if same[i] {
					l.outcomes[laneHour{q, hi}] = out
				}
			}
			acc.fold(h, out)
		}
		return nil
	}

	// commitPoint folds point p's racks into its result, frees them and
	// commits it. Only one worker commits at a time.
	commitPoint := func(p int) error {
		slots := accs[p]
		accs[p] = nil
		var outClasses map[string]string
		if classes == nil {
			// Baseline: classify racks from measured busy-hour contention
			// with the exact rule the dataset pipeline uses.
			metas := make([]fleet.RackMeta, len(racks))
			for i := range racks {
				metas[i] = fleet.RackMeta{
					Region:            racks[i].Region,
					ID:                racks[i].ID,
					BusyAvgContention: slots[i].busy.Avg(),
				}
			}
			fleet.ClassifyMetas(metas)
			outClasses = make(map[string]string, len(metas))
			for i := range metas {
				outClasses[rackKey(metas[i].Region, metas[i].ID)] = metas[i].Class.String()
			}
			classes = outClasses
		}
		pr := &PointResult{Point: pts[p], Classes: map[string]Tally{}}
		shared := 0
		for i := range racks {
			key := rackKey(racks[i].Region, racks[i].ID)
			cls, ok := classes[key]
			if !ok {
				return fmt.Errorf("sweep: rack %s missing from the baseline classification", key)
			}
			pr.Total.add(slots[i].tally)
			ct := pr.Classes[cls]
			ct.add(slots[i].tally)
			pr.Classes[cls] = ct
			shared += slots[i].shared
		}
		return commit(pr, outClasses, shared)
	}

	var (
		mu         sync.Mutex
		firstErr   error
		committed  int  // points committed, a prefix of pts
		committing bool // a worker is inside commitPoint
	)
	// take hands out the free lane that is furthest behind (the lowest rack
	// on a tie), or nil when no free lane has a point left.
	take := func() *lane {
		var best *lane
		for r := range lanes {
			if l := &lanes[r]; !l.busy && l.next < len(pts) && (best == nil || l.next < best.next) {
				best = l
			}
		}
		if best != nil {
			best.busy = true
		}
		return best
	}
	// frontier is the first point some lane has not passed.
	frontier := func() int {
		f := len(pts)
		for r := range lanes {
			f = min(f, lanes[r].next)
		}
		return f
	}

	var wg sync.WaitGroup
	for range min(base.Workers, len(lanes)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for firstErr == nil && ctx.Err() == nil {
				l := take()
				if l == nil {
					return
				}
				mu.Unlock()
				err := step(l)
				mu.Lock()
				l.busy = false
				if err != nil {
					firstErr = cmp.Or(firstErr, err)
					return
				}
				l.next++
				for !committing && firstErr == nil && committed < frontier() {
					committing = true
					p := committed
					mu.Unlock()
					err := commitPoint(p)
					mu.Lock()
					committing = false
					if err != nil {
						firstErr = cmp.Or(firstErr, err)
						return
					}
					committed++
				}
			}
		}()
	}
	wg.Wait()
	return cmp.Or(firstErr, ctx.Err())
}
