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
	// Kind is KindShard or KindPoint.
	Kind() string
	// Units lists every unit ID in preferred execution order.
	Units() []string
	// Done reports whether a unit is already committed (resume support: a
	// coordinator restarted over a half-finished directory re-leases only
	// the remainder).
	Done(id string) bool
	// Ready reports whether a unit may be leased now. Sweeps gate every
	// non-baseline point on the baseline's classification being committed.
	Ready(id string) bool
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
	case KindPoint:
		if req.Spec == nil {
			return nil, fmt.Errorf("distrib: sweep job needs a spec")
		}
		st, err := sweep.Create(req.Dir, *req.Spec)
		if err != nil {
			return nil, err
		}
		return &sweepJob{st: st, base: req.Spec.Fleet.Stored()}, nil
	default:
		return nil, fmt.Errorf("distrib: unknown job kind %q", req.Kind)
	}
}

// ---- dataset job ----

type datasetJob struct {
	w   *dataset.Writer
	dir string
}

func shardUnitID(region string, id int) string { return fmt.Sprintf("shard:%s/%d", region, id) }

func parseShardUnitID(unit string) (region string, id int, err error) {
	rest, ok := strings.CutPrefix(unit, "shard:")
	if !ok {
		return "", 0, fmt.Errorf("distrib: %q is not a shard unit", unit)
	}
	region, num, ok := strings.Cut(rest, "/")
	if !ok {
		return "", 0, fmt.Errorf("distrib: malformed shard unit %q", unit)
	}
	id, err = strconv.Atoi(num)
	if err != nil {
		return "", 0, fmt.Errorf("distrib: malformed shard unit %q", unit)
	}
	return region, id, nil
}

func (j *datasetJob) Kind() string { return KindShard }

func (j *datasetJob) Units() []string {
	shards := j.w.Shards()
	out := make([]string, len(shards))
	for i := range shards {
		out[i] = shardUnitID(shards[i].Region, shards[i].ID)
	}
	return out
}

func (j *datasetJob) Done(id string) bool {
	region, rack, err := parseShardUnitID(id)
	return err == nil && j.w.Done(region, rack)
}

// Ready: shards have no ordering constraints.
func (j *datasetJob) Ready(string) bool { return true }

func (j *datasetJob) Describe(id string) (*WorkUnit, error) {
	region, rack, err := parseShardUnitID(id)
	if err != nil {
		return nil, err
	}
	cfg := j.w.Config()
	return &WorkUnit{ID: id, Kind: KindShard, Config: cfg, Region: region, RackID: rack}, nil
}

func (j *datasetJob) Commit(id string, payload []byte) (bool, error) {
	region, rack, err := parseShardUnitID(id)
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

type sweepJob struct {
	st   *sweep.Store
	base fleet.Config
}

func pointUnitID(index int) string { return fmt.Sprintf("point:%d", index) }

func parsePointUnitID(unit string) (int, error) {
	rest, ok := strings.CutPrefix(unit, "point:")
	if !ok {
		return 0, fmt.Errorf("distrib: %q is not a point unit", unit)
	}
	idx, err := strconv.Atoi(rest)
	if err != nil {
		return 0, fmt.Errorf("distrib: malformed point unit %q", unit)
	}
	return idx, nil
}

func (j *sweepJob) Kind() string { return KindPoint }

func (j *sweepJob) Units() []string {
	pts := j.st.Points()
	out := make([]string, len(pts))
	for i := range pts {
		out[i] = pointUnitID(pts[i].Index)
	}
	return out
}

func (j *sweepJob) Done(id string) bool {
	idx, err := parsePointUnitID(id)
	return err == nil && j.st.Done(idx)
}

// Ready gates every counterfactual on the committed baseline: point 0 is
// always leasable, the rest only once its classification anchors their
// per-class tallies.
func (j *sweepJob) Ready(id string) bool {
	idx, err := parsePointUnitID(id)
	if err != nil {
		return false
	}
	return idx == 0 || j.st.Classes() != nil
}

func (j *sweepJob) Describe(id string) (*WorkUnit, error) {
	idx, err := parsePointUnitID(id)
	if err != nil {
		return nil, err
	}
	pts := j.st.Points()
	if idx < 0 || idx >= len(pts) {
		return nil, fmt.Errorf("distrib: point %d not in sweep", idx)
	}
	pt := pts[idx].Point
	var classes map[string]string
	if idx != 0 {
		classes = j.st.Classes()
		if classes == nil {
			return nil, fmt.Errorf("distrib: point %d described before the baseline committed", idx)
		}
	}
	return &WorkUnit{ID: id, Kind: KindPoint, Config: j.base, Point: &pt, Classes: classes}, nil
}

func (j *sweepJob) Commit(id string, payload []byte) (bool, error) {
	idx, err := parsePointUnitID(id)
	if err != nil {
		return false, err
	}
	var p PointPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return false, fmt.Errorf("distrib: point payload for %s: %w", id, err)
	}
	if p.Result == nil || p.Result.Index != idx {
		return false, fmt.Errorf("distrib: payload for %s carries the wrong point", id)
	}
	if idx == 0 && p.Classes == nil {
		return false, fmt.Errorf("distrib: baseline payload without a classification")
	}
	if idx != 0 {
		// Only the baseline may set the sweep's classification.
		p.Classes = nil
	}
	return j.st.CommitPointIfNew(p.Result, p.Classes)
}

func (j *sweepJob) Finalize() error { return j.st.Finalize() }

func (j *sweepJob) Fingerprint() (string, error) {
	res, err := sweep.Open(j.st.Dir())
	if err != nil {
		return "", err
	}
	return res.Manifest.ResultDigest, nil
}
