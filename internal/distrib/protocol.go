// Package distrib implements fault-tolerant distributed generation: a
// coordinator that owns a resumable result directory (a sharded dataset or a
// sweep) and leases its work units — rack shards, grid points — to remote
// workers over HTTP/JSON, stdlib only.
//
// The design splits responsibility so that no worker failure can corrupt the
// result:
//
//   - Workers are stateless compute: every unit is deterministic in
//     (config, unit), produced by the same encoders as single-process
//     generation, so any worker's answer for a unit is byte-identical to any
//     other's.
//   - The coordinator owns all durable state, reusing the dataset/sweep
//     manifest machinery. Leases are time-bounded and heartbeat-renewed; a
//     silent worker's lease expires and the unit is reassigned. Uploads are
//     sha256-verified (corrupt ones are quarantined and the unit requeued)
//     and committed idempotently — the first valid upload wins, duplicates
//     and stale-lease redeliveries are no-ops.
//
// Exactly-once therefore does not depend on lease exclusivity (two workers
// may legitimately compute the same unit after an expiry); it rides entirely
// on the idempotent commit, which the per-unit ledger proves after the fact.
package distrib

import (
	"repro/internal/fleet"
	"repro/internal/sweep"
)

// Unit kinds.
const (
	KindShard = "shard" // one rack's dataset shard
	KindPoint = "point" // one sweep grid point
)

// Complete statuses returned to the uploading worker.
const (
	StatusOK        = "ok"        // payload verified and committed
	StatusDuplicate = "duplicate" // unit already committed; upload discarded
	StatusCorrupt   = "corrupt"   // digest or structure mismatch; quarantined, unit requeued
)

// JobRequest submits (or idempotently re-attaches to) a job. Dir is a path
// on the coordinator's filesystem; exactly one of Config/Spec is set,
// matching Kind.
type JobRequest struct {
	Kind   string
	Dir    string
	Config *fleet.Config `json:",omitempty"` // KindShard jobs (dataset generation)
	Spec   *sweep.Spec   `json:",omitempty"` // KindPoint jobs (sweeps)
}

// WorkUnit is one leased unit of work, self-contained: a worker computes it
// from this description alone.
type WorkUnit struct {
	// ID names the unit within the job ("shard:RegA/3", "point:5").
	ID   string
	Kind string
	// Config is the full generation config for shards, and the sweep's base
	// fleet config for points (Workers cleared — the worker picks its own).
	Config fleet.Config
	// Region/RackID identify a shard unit.
	Region string `json:",omitempty"`
	RackID int    `json:",omitempty"`
	// Point is the grid point for point units. Classes is the baseline
	// classification every non-baseline point aggregates by; it is nil
	// exactly for the baseline point (index 0), which computes it.
	Point   *sweep.Point      `json:",omitempty"`
	Classes map[string]string `json:",omitempty"`
	// LeaseTTLMs is the heartbeat budget: the worker must renew well inside
	// it (TTL/3 is the convention) or the coordinator reassigns the unit.
	LeaseTTLMs int64
	// Token authenticates renew/release for this grant. A commit with a stale
	// token is still accepted when the unit is pending — correctness comes
	// from the idempotent commit, not from token freshness.
	Token string
}

// LeaseRequest asks for a unit. Worker is a stable identifier (host:pid).
type LeaseRequest struct {
	Worker string
}

// LeaseResponse grants a unit, asks the worker to retry later, or reports
// the job finished.
type LeaseResponse struct {
	Unit *WorkUnit `json:",omitempty"`
	// RetryAfterMs is set when Unit is nil and Done is false: nothing is
	// leasable right now (units in flight, baseline gating, drain).
	RetryAfterMs int64
	// Done means every unit is committed; the worker can exit.
	Done bool
}

// RenewRequest extends a lease's heartbeat.
type RenewRequest struct {
	Worker string
	UnitID string
	Token  string
}

// RenewResponse reports whether the lease is still held. OK=false tells the
// worker it lost the unit (expiry/reassignment); it should abandon the
// computation.
type RenewResponse struct {
	OK bool
}

// ReleaseRequest returns an uncomputed unit to the queue (graceful drain).
type ReleaseRequest struct {
	Worker string
	UnitID string
	Token  string
}

// CompleteRequest uploads a computed unit. Payload is the JSON-encoded
// result (dataset.ShardPayload for shards, PointPayload for points); SHA256
// is the worker-computed hex digest of exactly those bytes, verified by the
// coordinator before the payload is even decoded.
type CompleteRequest struct {
	Worker  string
	UnitID  string
	Token   string
	SHA256  string
	Payload []byte
}

// CompleteResponse reports the commit outcome (StatusOK / StatusDuplicate /
// StatusCorrupt).
type CompleteResponse struct {
	Status string
}

// PointPayload is the upload body for a sweep point. Classes is non-nil
// exactly for the baseline point.
type PointPayload struct {
	Result  *sweep.PointResult
	Classes map[string]string `json:",omitempty"`
}

// StatusResponse is the coordinator's progress snapshot.
type StatusResponse struct {
	HasJob   bool
	Kind     string `json:",omitempty"`
	Dir      string `json:",omitempty"`
	Done     int
	Total    int
	Complete bool
	// Fingerprint is the job's result digest, set once Complete: the sha256
	// over shard digests for datasets, the sweep ResultDigest for sweeps.
	Fingerprint string `json:",omitempty"`
	Draining    bool
}
