package sweep

import (
	"context"
	"fmt"
	"slices"

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
}

// Run executes (or resumes) spec into dir and returns the completed sweep.
// Committed points from a previous invocation are digest-verified and
// skipped; the rest run through computePoints, which hands them over one by
// one in grid order, and each commits as soon as it is complete, the
// baseline first with the classification that anchors every counterfactual.
// Each distinguishable rack-hour is simulated once among the points this
// invocation computes. A sweep killed at any moment — even mid-point —
// resumes to the byte-identical result, because every point is
// deterministic in (spec, point) and commits atomically. When MaxPoints
// leaves work behind, Run returns ErrIncomplete.
//
// Cancelling ctx aborts between rack-hours with committed points intact;
// re-running the same spec resumes from them.
func Run(ctx context.Context, dir string, spec Spec, opts Options) (*Result, error) {
	st, err := Create(dir, spec)
	if err != nil {
		return nil, err
	}
	base := spec.Fleet
	if opts.Workers > 0 {
		base.Workers = opts.Workers
	}
	// The points this invocation computes: uncommitted ones, in grid order,
	// within the MaxPoints budget.
	pts := st.Pending()
	if opts.MaxPoints > 0 && len(pts) > opts.MaxPoints {
		pts = pts[:opts.MaxPoints]
	}
	base, racks, err := plan(base, pts)
	if err != nil {
		return nil, err
	}
	err = computePoints(ctx, base, racks, pts, opts, func(p int, slots []RackTally) error {
		if err := st.foldCommit(pts[p], racks, slots, false); err != nil {
			return err
		}
		if opts.Progress != nil {
			shared := 0
			for _, t := range slots {
				shared += t.Shared
			}
			done, total := st.Progress()
			opts.Progress(Progress{Index: pts[p].Index, Label: pts[p].Label, Done: done, Total: total, Shared: shared})
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

// RackTally is one rack's contribution to one grid point: what a lane
// reports per point, and what foldPoint folds into the point's result.
type RackTally struct {
	Tally Tally
	// BusyAvg is the average contention of the rack's busy-hour run
	// (fleet.BusyPick); the baseline classifies its racks by it.
	BusyAvg float64
	// Shared counts the rack-hours taken from an earlier point's run instead
	// of simulated.
	Shared int
}

// foldPoint folds one point's rack tallies, in BuildRacks order, into its
// result. classes is the baseline classification; nil means pt is the
// baseline, whose racks are classified here from their busy-hour contention
// with the exact rule the dataset pipeline uses, and the new mapping is
// returned for the commit to record.
func foldPoint(pt Point, racks []fleet.RackSpec, slots []RackTally, classes map[string]string) (pr *PointResult, outClasses map[string]string, err error) {
	if classes == nil {
		if pt.Index != 0 {
			return nil, nil, fmt.Errorf("sweep: point %d folded before the baseline classification", pt.Index)
		}
		metas := make([]fleet.RackMeta, len(racks))
		for i := range racks {
			metas[i] = fleet.RackMeta{Region: racks[i].Region, ID: racks[i].ID, BusyAvgContention: slots[i].BusyAvg}
		}
		fleet.ClassifyMetas(metas)
		outClasses = make(map[string]string, len(metas))
		for i := range metas {
			outClasses[rackKey(metas[i].Region, metas[i].ID)] = metas[i].Class.String()
		}
		classes = outClasses
	}
	pr = &PointResult{Point: pt, Classes: map[string]Tally{}}
	for i := range racks {
		key := rackKey(racks[i].Region, racks[i].ID)
		cls, ok := classes[key]
		if !ok {
			return nil, nil, fmt.Errorf("sweep: rack %s missing from the baseline classification", key)
		}
		pr.Total.add(slots[i].Tally)
		ct := pr.Classes[cls]
		ct.add(slots[i].Tally)
		pr.Classes[cls] = ct
	}
	return pr, outClasses, nil
}

// ComputePoint simulates one grid point of a sweep alone and returns its
// result: the reference the sharing oracle holds Run's point files to.
// classes must be the baseline classification for every non-baseline point
// and nil exactly for the baseline, which classifies the racks itself and
// returns the mapping. The result is deterministic in (base, pt, classes);
// workers only sets how many racks simulate at once.
func ComputePoint(ctx context.Context, base fleet.Config, pt Point, workers int, classes map[string]string) (pr *PointResult, outClasses map[string]string, err error) {
	base.Workers = workers
	base, racks, err := plan(base, []Point{pt})
	if err != nil {
		return nil, nil, err
	}
	err = computePoints(ctx, base, racks, []Point{pt}, Options{}, func(_ int, slots []RackTally) (err error) {
		pr, outClasses, err = foldPoint(pt, racks, slots, classes)
		return err
	})
	return pr, outClasses, err
}

// ComputeLane runs one rack, the lane region/id, through pts in grid order
// with the same sharing as Run and returns the rack's tally for each point —
// the unit a distributed worker computes. Store.CommitLanes folds the lanes
// of every rack into the points' results. base and pts arrive from outside
// the process, so both are validated before any rack is built.
func ComputeLane(ctx context.Context, base fleet.Config, pts []Point, region string, id int) ([]RackTally, error) {
	base, racks, err := plan(base, pts)
	if err != nil {
		return nil, err
	}
	r := slices.IndexFunc(racks, func(r fleet.RackSpec) bool { return r.Region == region && r.ID == id })
	if r < 0 {
		return nil, fmt.Errorf("sweep: no rack %s in the fleet", rackKey(region, id))
	}
	out := make([]RackTally, len(pts))
	err = computePoints(ctx, base, racks[r:r+1], pts, Options{}, func(p int, slots []RackTally) error {
		out[p] = slots[0]
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// plan resolves base's defaults, validates it under every point's override
// and builds its racks.
func plan(base fleet.Config, pts []Point) (fleet.Config, []fleet.RackSpec, error) {
	base = base.WithDefaults()
	for _, pt := range pts {
		cfg := base
		cfg.Switch = pt.Override
		if err := cfg.Validate(); err != nil {
			return base, nil, err
		}
	}
	return base, fleet.BuildRacks(base), nil
}

// laneRun is one simulated rack-hour: the switch it ran with (the rest of its
// configuration is the sweep's base), its switch counters (margins included)
// and its reduced outcome.
type laneRun struct {
	o   fleet.SwitchOverride
	sc  fleet.SwitchCounters
	out Tally
}

// computePoints runs racks through pts — the points of one invocation, in
// grid order — and hands each point's rack tallies, in racks order, to
// commit once every rack has run it, one call at a time and in grid order.
// Every rack is a lane (fleet.RunLanes) whose steps are the points: it runs
// its hours for one point after another, base.Workers workers each take the
// free lane that is furthest behind, and a point is handed over as soon as
// every lane has passed it. A lane keeps the rack-hours it simulated, and a
// later point takes the first one of its hour that its override reproduces
// (fleet.SwitchCounters.Reproduces: the same route, and a switch whose
// margins contain the point's sharing rule) instead of simulating. Which
// rack-hours are shared therefore depends on the grid alone, never on the
// width or on which racks run together. Memory holds rack tallies and one
// reduced run per simulated rack-hour, never SyncRuns. base and racks come
// from plan.
func computePoints(ctx context.Context, base fleet.Config, racks []fleet.RackSpec, pts []Point, opts Options,
	commit func(p int, slots []RackTally) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// runs[r][hi] holds the rack-hours rack r's lane simulated at Hours[hi],
	// in grid order, for later points to take.
	runs := make([][][]laneRun, len(racks))
	for r := range runs {
		runs[r] = make([][]laneRun, len(base.Hours))
	}
	// accs[p][r] is rack r's tally for point p, written by r's lane and
	// handed to commit once every lane has passed p.
	accs := make([][]RackTally, len(pts))
	for p := range accs {
		accs[p] = make([]RackTally, len(racks))
	}

	// step runs rack r for point p.
	step := func(r, p int) error {
		spec := &racks[r]
		if opts.rackHook != nil {
			if err := opts.rackHook(pts[p].Index, spec.Region, spec.ID); err != nil {
				return err
			}
		}
		cfg := base
		cfg.Switch = pts[p].Override
		rt := &accs[p][r]
		var busy fleet.BusyPick
		reproduces := func(run laneRun) bool { return run.sc.Reproduces(base, run.o, cfg.Switch) }
		for hi, h := range cfg.Hours {
			if err := ctx.Err(); err != nil {
				return err
			}
			var out Tally
			if i := slices.IndexFunc(runs[r][hi], reproduces); i >= 0 {
				out = runs[r][hi][i].out
				rt.Shared++
			} else {
				sr, sc, simErr := fleet.SimulateRunFull(cfg, *spec, h)
				out = tallyRun(sr, sc, simErr)
				runs[r][hi] = append(runs[r][hi], laneRun{cfg.Switch, sc, out})
			}
			rt.Tally.add(out)
			busy.Add(h, out.SumAvgContention)
		}
		rt.BusyAvg = busy.Avg()
		return nil
	}
	return fleet.RunLanes(ctx, base.Workers, len(racks), len(pts), step, func(p int) error {
		err := commit(p, accs[p])
		accs[p] = nil // free the point's tallies
		return err
	})
}
