package sweep

import (
	"sync"

	"repro/internal/fleet"
)

// sharer lets the points of one Run invocation simulate each distinguishable
// rack-hour once. When a point simulates a rack-hour, every pending point
// that has not started yet rides along as a shadow of the switch's sharing
// policy (fleet.SimulateRunShadowed); a shadow that never disagreed with an
// admission decision proves that point's run of the rack-hour would be this
// one, byte for byte, so the point takes the reduced outcome instead of
// simulating it. Entries exist only for points of this invocation that have
// not started, and each is deleted when its point takes it, so a Run that
// completes its points leaves the sharer empty and memory is bounded by
// reduced outcomes, never by SyncRuns.
type sharer struct {
	mu      sync.Mutex
	pts     []PointEntry
	waiting []int  // this invocation's points, in grid order
	started []bool // by point index
	entries map[hourKey]hourOutcome
	shared  []int // by point index: rack-hours taken from an entry
}

// hourKey names one rack-hour as a given point would run it.
type hourKey struct {
	point      int
	region     string
	rack, hour int
}

func newSharer(pts []PointEntry, pending []int) *sharer {
	return &sharer{
		pts:     pts,
		waiting: pending,
		started: make([]bool, len(pts)),
		entries: map[hourKey]hourOutcome{},
		shared:  make([]int, len(pts)),
	}
}

// deliver is point's fleet.VisitOpts.Deliver hook; cfg is the point's
// fleet configuration. Starting the visit marks the point started, so no
// later run offers it an entry it would never take.
func (sh *sharer) deliver(cfg fleet.Config, point int) func(spec *fleet.RackSpec, hour int, v fleet.RackVisitor) error {
	sh.mu.Lock()
	sh.started[point] = true
	sh.mu.Unlock()
	return func(spec *fleet.RackSpec, hour int, v fleet.RackVisitor) error {
		acc := v.(*tallyVisitor).acc
		key := hourKey{point: point, region: spec.Region, rack: spec.ID, hour: hour}
		if out, ok := sh.take(key); ok {
			acc.fold(hour, out)
			return nil
		}
		qs, alts := sh.alternatives(key)
		sr, sc, same, simErr := fleet.SimulateRunShadowed(cfg, *spec, hour, alts)
		out := reduce(sr, sc, simErr)
		sh.offer(key, qs, same, out)
		acc.fold(hour, out)
		return nil
	}
}

// take removes and returns the outcome an earlier run left for key.
func (sh *sharer) take(key hourKey) (hourOutcome, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out, ok := sh.entries[key]
	if ok {
		delete(sh.entries, key)
		sh.shared[key.point]++
	}
	return out, ok
}

// alternatives lists the points that could still take key's rack-hour from
// this run — not started, no outcome yet — with their overrides.
func (sh *sharer) alternatives(key hourKey) (qs []int, alts []fleet.SwitchOverride) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, q := range sh.waiting {
		key.point = q
		if _, has := sh.entries[key]; !sh.started[q] && !has {
			qs = append(qs, q)
			alts = append(alts, sh.pts[q].Override)
		}
	}
	return qs, alts
}

// offer leaves out for every point of qs whose shadow matched and that has
// neither started meanwhile nor been given an outcome by another run.
func (sh *sharer) offer(key hourKey, qs []int, same []bool, out hourOutcome) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i, q := range qs {
		key.point = q
		if _, has := sh.entries[key]; same[i] && !sh.started[q] && !has {
			sh.entries[key] = out
		}
	}
}

// sharedBy returns how many rack-hours point took from an entry.
func (sh *sharer) sharedBy(point int) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.shared[point]
}
