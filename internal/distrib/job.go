package distrib

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/sweep"
)

// Job abstracts the coordinator over what is being distributed. Both
// implementations delegate durable state to the existing resumable stores
// (dataset.Writer, sweep.Store), which is what makes a coordinator restart —
// or a switch back to single-process generation — seamless: the on-disk
// format is identical.
//
// Commit must be idempotent: applying a payload for an already-committed
// unit returns installed=false and mutates nothing. That single property is
// what turns at-least-once delivery into an exactly-once result.
type Job interface {
	// Kind is KindShard or KindLane.
	Kind() string
	// Units lists every unit ID in preferred execution order.
	Units() []string
	// Done reports whether a unit is already committed (resume support: a
	// coordinator restarted over a half-finished directory re-leases only
	// the remainder).
	Done(id string) bool
	// Describe builds the self-contained WorkUnit a worker computes from.
	Describe(id string) (*WorkUnit, error)
	// Commit decodes and applies a digest-verified payload. A structurally
	// invalid payload returns an error (the caller quarantines and requeues);
	// an already-committed unit returns (false, nil).
	Commit(id string, payload []byte) (installed bool, err error)
	// Finalize seals the result once every unit is committed.
	Finalize() error
	// Fingerprint is the sealed result's one-line digest.
	Fingerprint() (string, error)
}

// NewJob opens (or resumes) the job a JobRequest describes, rooted at
// req.Dir on the local filesystem.
func NewJob(req *JobRequest) (Job, error) {
	switch req.Kind {
	case KindShard:
		if req.Config == nil {
			return nil, fmt.Errorf("distrib: dataset job needs a config")
		}
		w, err := dataset.Create(req.Dir, *req.Config)
		if err != nil {
			return nil, err
		}
		return &datasetJob{w: w, dir: req.Dir}, nil
	case KindLane:
		if req.Spec == nil {
			return nil, fmt.Errorf("distrib: sweep job needs a spec")
		}
		st, err := sweep.Create(req.Dir, *req.Spec)
		if err != nil {
			return nil, err
		}
		return newSweepJob(st, req.Spec.Fleet.Stored()), nil
	default:
		return nil, fmt.Errorf("distrib: unknown job kind %q", req.Kind)
	}
}

// ---- dataset job ----

type datasetJob struct {
	w   *dataset.Writer
	dir string
}

// rackUnitID names a kind's unit for one rack ("shard:RegA/3", "lane:RegA/3").
func rackUnitID(kind, region string, id int) string { return fmt.Sprintf("%s:%s/%d", kind, region, id) }

func parseRackUnitID(kind, unit string) (region string, id int, err error) {
	rest, ok := strings.CutPrefix(unit, kind+":")
	if !ok {
		return "", 0, fmt.Errorf("distrib: %q is not a %s unit", unit, kind)
	}
	region, num, ok := strings.Cut(rest, "/")
	if !ok {
		return "", 0, fmt.Errorf("distrib: malformed %s unit %q", kind, unit)
	}
	id, err = strconv.Atoi(num)
	if err != nil {
		return "", 0, fmt.Errorf("distrib: malformed %s unit %q", kind, unit)
	}
	return region, id, nil
}

func (j *datasetJob) Kind() string { return KindShard }

func (j *datasetJob) Units() []string {
	shards := j.w.Shards()
	out := make([]string, len(shards))
	for i := range shards {
		out[i] = rackUnitID(KindShard, shards[i].Region, shards[i].ID)
	}
	return out
}

func (j *datasetJob) Done(id string) bool {
	region, rack, err := parseRackUnitID(KindShard, id)
	return err == nil && j.w.Done(region, rack)
}

func (j *datasetJob) Describe(id string) (*WorkUnit, error) {
	region, rack, err := parseRackUnitID(KindShard, id)
	if err != nil {
		return nil, err
	}
	cfg := j.w.Config()
	return &WorkUnit{ID: id, Kind: KindShard, Config: cfg, Region: region, RackID: rack}, nil
}

func (j *datasetJob) Commit(id string, payload []byte) (bool, error) {
	region, rack, err := parseRackUnitID(KindShard, id)
	if err != nil {
		return false, err
	}
	var p dataset.ShardPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return false, fmt.Errorf("distrib: shard payload for %s: %w", id, err)
	}
	if p.Region != region || p.ID != rack {
		return false, fmt.Errorf("distrib: payload for %s claims rack %s/%d", id, p.Region, p.ID)
	}
	return j.w.InstallShard(&p)
}

func (j *datasetJob) Finalize() error { return j.w.Finalize() }

// Fingerprint is the sealed directory's dataset.Reader.StoreDigest — the
// value queryd serves as the dataset's ETag base.
func (j *datasetJob) Fingerprint() (string, error) {
	r, err := dataset.Open(j.dir)
	if err != nil {
		return "", err
	}
	return r.StoreDigest()
}

// ---- sweep job ----

// sweepJob leases one lane per rack: the rack run through every point that
// was pending when the job attached. Uploaded lanes wait in memory; when the
// last one lands, CommitLanes folds and commits every point. A coordinator
// that restarts before then re-leases every lane of the points still
// pending, which determinism makes harmless. The coordinator's lock
// serializes every call, so lanes needs none of its own.
type sweepJob struct {
	st    *sweep.Store
	base  fleet.Config
	pts   []sweep.Point
	units []string                     // lane IDs in BuildRacks order
	lanes map[string][]sweep.RackTally // uploaded lanes by unit ID
}

func newSweepJob(st *sweep.Store, base fleet.Config) *sweepJob {
	j := &sweepJob{st: st, base: base, pts: st.Pending(), lanes: map[string][]sweep.RackTally{}}
	for _, r := range fleet.BuildRacks(base) {
		j.units = append(j.units, rackUnitID(KindLane, r.Region, r.ID))
	}
	return j
}

func (j *sweepJob) Kind() string { return KindLane }

func (j *sweepJob) Units() []string { return j.units }

func (j *sweepJob) Done(id string) bool { return len(j.pts) == 0 || j.lanes[id] != nil }

func (j *sweepJob) Describe(id string) (*WorkUnit, error) {
	region, rack, err := parseRackUnitID(KindLane, id)
	if err != nil {
		return nil, err
	}
	return &WorkUnit{ID: id, Kind: KindLane, Config: j.base, Region: region, RackID: rack, Points: j.pts}, nil
}

// Commit keeps a lane whose shape fits the job and, once every lane is in,
// commits the points. If that fold fails, the last lane is dropped so it can
// be uploaded again.
func (j *sweepJob) Commit(id string, payload []byte) (bool, error) {
	var lane []sweep.RackTally
	if err := json.Unmarshal(payload, &lane); err != nil {
		return false, fmt.Errorf("distrib: lane payload for %s: %w", id, err)
	}
	if len(lane) != len(j.pts) {
		return false, fmt.Errorf("distrib: lane %s has %d tallies for %d pending points", id, len(lane), len(j.pts))
	}
	for p, t := range lane {
		if t.Tally.Runs != len(j.base.Hours) || t.Tally.FailedRuns < 0 || t.Tally.FailedRuns > t.Tally.Runs ||
			t.Shared < 0 || t.Shared > t.Tally.Runs {
			return false, fmt.Errorf("distrib: lane %s tally %d counts %d runs (%d failed, %d shared) for %d hours",
				id, p, t.Tally.Runs, t.Tally.FailedRuns, t.Shared, len(j.base.Hours))
		}
	}
	if j.lanes[id] != nil {
		return false, nil
	}
	j.lanes[id] = lane
	if len(j.lanes) < len(j.units) {
		return true, nil
	}
	lanes := make([][]sweep.RackTally, len(j.units))
	for r, u := range j.units {
		lanes[r] = j.lanes[u]
	}
	if err := j.st.CommitLanes(j.pts, lanes); err != nil {
		delete(j.lanes, id)
		return false, err
	}
	return true, nil
}

func (j *sweepJob) Finalize() error { return j.st.Finalize() }

func (j *sweepJob) Fingerprint() (string, error) {
	res, err := sweep.Open(j.st.Dir())
	if err != nil {
		return "", err
	}
	return res.Manifest.ResultDigest, nil
}
