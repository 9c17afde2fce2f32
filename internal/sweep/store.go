package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"reflect"

	"repro/internal/fleet"
	"repro/internal/fsutil"
	"repro/internal/unitstore"
)

// ManifestName is the manifest file within a sweep result directory.
const ManifestName = "sweep.json"

// layout makes a sweep result directory a resumable unit store whose units
// are the grid points; unitstore owns the commit order and the resume checks.
var layout = unitstore.Layout{
	Pkg:          "sweep",
	ManifestName: ManifestName,
	Version:      FormatVersion,
	Corrupt:      ErrCorruptPoint,
	Incomplete:   ErrIncomplete,
}

// pointFileName returns the canonical result file name for a grid point.
func pointFileName(index int) string { return fmt.Sprintf("point-%03d.json", index) }

// rackKey identifies a rack in the Classes map.
func rackKey(region string, id int) string { return fmt.Sprintf("%s/%d", region, id) }

// Manifest is the result directory's table of contents. Like the dataset
// manifest it is atomically replaced on every update, so a killed sweep
// leaves either the pre- or post-commit state, never a torn file.
type Manifest struct {
	FormatVersion int
	// Name echoes the spec's label.
	Name string `json:",omitempty"`
	// Fleet is the normalized base generation configuration (defaults
	// resolved, Workers cleared — scheduling never affects results).
	Fleet fleet.Config
	// Points lists the expanded grid in index order, present from the moment
	// the directory is created so progress is always done/total.
	Points []PointEntry
	// Classes maps rack keys ("RegA/3") to baseline contention-class names,
	// recorded atomically with the baseline point's commit; every
	// counterfactual point aggregates by these same classes.
	Classes map[string]string `json:",omitempty"`
	// Complete is set by Finalize once every point is committed.
	Complete bool
	// ResultDigest is the sha256 over all point digests in index order — the
	// one-line fingerprint two sweeps can be compared by.
	ResultDigest string `json:",omitempty"`
}

// PointEntry tracks one grid point's execution state.
type PointEntry struct {
	Point
	// File is the point result's name within the directory.
	File string
	// Digest is the sha256 hex of the point file's bytes; resume and read
	// paths verify it before trusting the result.
	Digest   string `json:",omitempty"`
	Complete bool
}

// The unitstore.Manifest view: points are the units, Complete the seal.
func (m *Manifest) Version() int  { return m.FormatVersion }
func (m *Manifest) Units() int    { return len(m.Points) }
func (m *Manifest) Sealed() *bool { return &m.Complete }
func (m *Manifest) Unit(i int) (file string, digest *string, complete *bool) {
	p := &m.Points[i]
	return p.File, &p.Digest, &p.Complete
}
func (m *Manifest) Demote(i int) { m.Points[i].Digest, m.Points[i].Complete = "", false }

// Progress returns a manifest's committed and total point counts.
func (m *Manifest) Progress() (done, total int) { return unitstore.Progress(m) }

// Store manages a (resumable) sweep result directory. It is safe for
// concurrent point commits; manifest updates are serialized by the unit
// store.
type Store struct {
	st  *unitstore.Store
	man *Manifest // read under st.View; written only inside st's hooks
}

// Create opens dir for (resumed) execution of spec. A fresh directory gets a
// manifest listing every expanded point; an existing one is validated — the
// stored fleet config, seed, and point grid must match the spec's, completed
// points are digest-verified (corrupt or missing ones are demoted to pending
// so they re-run), and stale temp files are removed. A mismatch returns
// ErrSpecMismatch rather than mixing points from different sweeps.
func Create(dir string, spec Spec) (*Store, error) {
	pts, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	norm := spec.Fleet.Stored()
	man := &Manifest{}
	st, err := unitstore.Create(layout, dir, man, func() {
		*man = Manifest{FormatVersion: FormatVersion, Name: spec.Name, Fleet: norm}
		for _, p := range pts {
			man.Points = append(man.Points, PointEntry{Point: p, File: pointFileName(p.Index)})
		}
	}, func() error { return matchSpec(man, norm, pts) })
	if err != nil {
		return nil, err
	}
	return &Store{st: st, man: man}, nil
}

// matchSpec refuses to resume over a directory started from a different
// spec: the fleet config (seed included) and the expanded grid must agree.
func matchSpec(man *Manifest, norm fleet.Config, pts []Point) error {
	if !reflect.DeepEqual(man.Fleet, norm) {
		return fmt.Errorf("%w: directory was started with %s; spec has %s",
			ErrSpecMismatch, man.Fleet.Describe(), norm.Describe())
	}
	if len(man.Points) != len(pts) {
		return fmt.Errorf("%w: directory has %d grid points, spec expands to %d",
			ErrSpecMismatch, len(man.Points), len(pts))
	}
	for i := range pts {
		if man.Points[i].Point != pts[i] {
			return fmt.Errorf("%w: point %d is %s in the directory but %s in the spec",
				ErrSpecMismatch, i, man.Points[i].Label, pts[i].Label)
		}
	}
	return nil
}

// Dir returns the store's result directory.
func (st *Store) Dir() string { return st.st.Dir() }

// Done reports whether a point is already committed.
func (st *Store) Done(index int) bool { return st.st.Done(index) }

// Pending returns the uncommitted points in grid order.
func (st *Store) Pending() (out []Point) {
	st.st.View(func() {
		for _, e := range st.man.Points {
			if !e.Complete {
				out = append(out, e.Point)
			}
		}
	})
	return out
}

// Progress returns committed and total point counts.
func (st *Store) Progress() (done, total int) { return st.st.Progress() }

// Classes returns the baseline classification, or nil while the baseline
// point is pending.
func (st *Store) Classes() (classes map[string]string) {
	st.st.View(func() { classes = st.man.Classes })
	return classes
}

// CommitPoint durably writes a point's result file and marks it complete in
// the manifest with its digest. classes, non-nil only for the baseline
// point, is recorded in the same manifest update, so a crash can never leave
// a committed baseline without its classification.
func (st *Store) CommitPoint(pr *PointResult, classes map[string]string) error {
	return st.commitPoint(pr, classes, false)
}

// CommitLanes folds lanes — one per rack in BuildRacks order, each the
// rack's ComputeLane tally for every point of pts — into the points' results
// and commits them in grid order, the baseline first when pts holds it. The
// commit is idempotent: a point already committed is left untouched, so a
// lane set replayed after a coordinator restart can never alter the result
// directory.
func (st *Store) CommitLanes(pts []Point, lanes [][]RackTally) error {
	var racks []fleet.RackSpec
	st.st.View(func() { racks = fleet.BuildRacks(st.man.Fleet) })
	if len(lanes) != len(racks) {
		return fmt.Errorf("sweep: %d lanes for %d racks", len(lanes), len(racks))
	}
	for r, lane := range lanes {
		if len(lane) != len(pts) {
			return fmt.Errorf("sweep: lane %d has %d tallies for %d points", r, len(lane), len(pts))
		}
	}
	slots := make([]RackTally, len(racks))
	for p, pt := range pts {
		for r, lane := range lanes {
			slots[r] = lane[p]
		}
		if err := st.foldCommit(pt, racks, slots, true); err != nil {
			return err
		}
	}
	return nil
}

// foldCommit folds pt's rack tallies by the store's classification (or, for
// the baseline, into it) and commits the result.
func (st *Store) foldCommit(pt Point, racks []fleet.RackSpec, slots []RackTally, ifNew bool) error {
	pr, classes, err := foldPoint(pt, racks, slots, st.Classes())
	if err != nil {
		return err
	}
	return st.commitPoint(pr, classes, ifNew)
}

// commitPoint is CommitPoint; ifNew leaves a point already committed as is.
func (st *Store) commitPoint(pr *PointResult, classes map[string]string, ifNew bool) error {
	data, err := fsutil.MarshalJSON(pr)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	_, err = st.st.Commit(pr.Index, data, ifNew, func() {
		if classes != nil {
			st.man.Classes = classes
		}
	})
	return err
}

// Finalize seals the sweep: it refuses while points are pending, then
// records the result digest and marks the manifest complete.
func (st *Store) Finalize() error {
	return st.st.Seal(func() error {
		h := sha256.New()
		for i := range st.man.Points {
			fmt.Fprintf(h, "%03d:%s\n", st.man.Points[i].Index, st.man.Points[i].Digest)
		}
		st.man.ResultDigest = hex.EncodeToString(h.Sum(nil))
		return nil
	})
}

// Inspect reads a sweep directory's manifest without loading or verifying
// any point results — the cheap status view dsinspect and the query
// service's catalog use. Unlike Open it succeeds on an incomplete sweep;
// callers decide what an unfinished grid means for them.
func Inspect(dir string) (*Manifest, error) {
	var m Manifest
	if err := layout.Read(dir, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// IsDir reports whether path holds a sweep result directory (a sweep.json).
func IsDir(path string) bool { return layout.IsDir(path) }

// Result is a completed sweep loaded back from disk.
type Result struct {
	Dir      string
	Manifest *Manifest
	// Points holds every point's result in grid order; Points[0] is the
	// baseline.
	Points []PointResult
}

// Baseline returns the comparison anchor (point 0).
func (r *Result) Baseline() *PointResult { return &r.Points[0] }

// Open loads a completed sweep, verifying every point file against its
// recorded digest. An unfinished sweep returns ErrIncomplete — re-run
// cmd/sweep with the same spec to resume it.
func Open(dir string) (*Result, error) {
	man, err := Inspect(dir)
	if err != nil {
		return nil, err
	}
	if !man.Complete {
		done, total := man.Progress()
		return nil, fmt.Errorf("%w: %s has %d of %d points", ErrIncomplete, dir, done, total)
	}
	res := &Result{Dir: dir, Manifest: man, Points: make([]PointResult, len(man.Points))}
	for i := range man.Points {
		path := filepath.Join(dir, man.Points[i].File)
		if err := layout.Verify(path, man.Points[i].Digest); err != nil {
			return nil, err
		}
		if err := fsutil.ReadJSON(path, &res.Points[i]); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	return res, nil
}
