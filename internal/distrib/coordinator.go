package distrib

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"repro/internal/fsutil"
	"repro/internal/httpserve"
)

// CoordinatorConfig tunes lease behavior. Results never depend on it.
type CoordinatorConfig struct {
	// LeaseTTL is the heartbeat budget: a lease not renewed within it is
	// expired and its unit requeued. Default 30s.
	LeaseTTL time.Duration
	// StragglerDeadline caps a single grant's total lifetime regardless of
	// heartbeats — the distributed mirror of the harvest state machine's
	// straggler window: a worker that renews forever but never finishes
	// eventually loses the unit to someone faster. Default 20×LeaseTTL.
	StragglerDeadline time.Duration
	// RetryAfter is what lease requests are told to wait when nothing is
	// leasable. Default LeaseTTL/4.
	RetryAfter time.Duration

	// now is the clock seam for deterministic expiry tests.
	now func() time.Time
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.StragglerDeadline <= 0 {
		c.StragglerDeadline = 20 * c.LeaseTTL
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = c.LeaseTTL / 4
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// unit lifecycle states.
const (
	unitPending = iota
	unitLeased
	unitDone
)

type unitState struct {
	id        string
	state     int
	token     string
	grantedAt time.Time
	lastRenew time.Time
}

// Coordinator owns a job's durable state and leases its units to workers.
// It is transport-agnostic (Handler exposes it over HTTP); all methods are
// safe for concurrent use.
type Coordinator struct {
	cfg CoordinatorConfig

	mu          sync.Mutex
	job         Job
	jobReq      *JobRequest
	units       map[string]*unitState
	order       []string
	seq         int
	ledger      *Ledger
	draining    bool
	finalized   bool
	fingerprint string
	doneCh      chan struct{} // closed when the job finalizes
}

// NewCoordinator returns an idle coordinator; Submit attaches the job.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	return &Coordinator{cfg: cfg.withDefaults(), doneCh: make(chan struct{})}
}

// Submit attaches a job. Re-submitting an identical request is a no-op
// (idempotent — the client retries submissions like any other RPC); a
// different request while a job is loaded is refused.
func (c *Coordinator) Submit(req *JobRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.job != nil {
		if reflect.DeepEqual(c.jobReq, req) {
			return nil
		}
		return fmt.Errorf("distrib: coordinator is already running a %s job in %s", c.jobReq.Kind, c.jobReq.Dir)
	}
	job, err := NewJob(req)
	if err != nil {
		return err
	}
	return c.attachLocked(job, req)
}

// attachLocked wires a job into the lease table (the testable core of
// Submit).
func (c *Coordinator) attachLocked(job Job, req *JobRequest) error {
	c.job = job
	c.jobReq = req
	c.order = job.Units()
	c.units = make(map[string]*unitState, len(c.order))
	for _, id := range c.order {
		st := &unitState{id: id}
		if job.Done(id) {
			st.state = unitDone
		}
		c.units[st.id] = st
	}
	c.ledger = NewLedger(c.order)
	// A resumed directory may already be complete.
	return c.maybeFinalizeLocked()
}

// Ledger returns the job's delivery accounting (nil before Submit).
func (c *Coordinator) Ledger() *Ledger {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ledger
}

// Done returns a channel closed when the job finalizes.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Drain stops granting new leases; in-flight units may still complete.
// This is the coordinator's SIGTERM path.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// Lease grants the next pending unit. With nothing leasable it
// returns a retry hint; once every unit is committed it reports done.
func (c *Coordinator) Lease(worker string) (*LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	retry := &LeaseResponse{RetryAfterMs: c.cfg.RetryAfter.Milliseconds()}
	if c.job == nil {
		// Workers may start before the job is submitted; have them idle and
		// poll rather than die on a permanent error.
		return retry, nil
	}
	if c.finalized {
		return &LeaseResponse{Done: true}, nil
	}
	if c.draining {
		return retry, nil
	}
	c.expireLocked()
	for _, id := range c.order {
		st := c.units[id]
		if st.state != unitPending {
			continue
		}
		wu, err := c.job.Describe(id)
		if err != nil {
			return nil, err
		}
		c.seq++
		st.state = unitLeased
		st.token = fmt.Sprintf("l-%d", c.seq)
		st.grantedAt = c.cfg.now()
		st.lastRenew = st.grantedAt
		c.ledger.lease(id)
		wu.LeaseTTLMs = c.cfg.LeaseTTL.Milliseconds()
		wu.Token = st.token
		return &LeaseResponse{Unit: wu}, nil
	}
	return retry, nil
}

// Renew extends a lease. OK=false means the caller no longer holds the unit
// (it expired, was reassigned, or already committed) and should abandon it.
func (c *Coordinator) Renew(worker, unitID, token string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	st, ok := c.units[unitID]
	if !ok || st.state != unitLeased || st.token != token {
		return false
	}
	st.lastRenew = c.cfg.now()
	return true
}

// Release returns an uncomputed unit to the queue — the graceful half of
// worker drain (the ungraceful half is lease expiry).
func (c *Coordinator) Release(worker, unitID, token string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.units[unitID]
	if ok && st.state == unitLeased && st.token == token {
		st.state = unitPending
		st.token = ""
	}
}

// Complete verifies and commits an upload. The declared sha256 is checked
// against the received bytes before anything is decoded; a mismatch — or a
// payload the job rejects structurally — quarantines the bytes and requeues
// the unit. Commits are accepted regardless of lease freshness for pending
// units: the job's idempotent commit, not the lease, is the exactly-once
// boundary.
func (c *Coordinator) Complete(req *CompleteRequest) (*CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.job == nil {
		return nil, fmt.Errorf("distrib: no job submitted")
	}
	st, ok := c.units[req.UnitID]
	if !ok {
		return nil, fmt.Errorf("distrib: unknown unit %q", req.UnitID)
	}
	if got := fsutil.SHA256(req.Payload); got != req.SHA256 {
		c.quarantineLocked(st, req, fmt.Sprintf("declared sha256 %s, payload hashes %s", req.SHA256, got))
		return &CompleteResponse{Status: StatusCorrupt}, nil
	}
	if st.state == unitDone {
		c.ledger.duplicate(st.id)
		return &CompleteResponse{Status: StatusDuplicate}, nil
	}
	installed, err := c.job.Commit(st.id, req.Payload)
	if err != nil {
		c.quarantineLocked(st, req, err.Error())
		return &CompleteResponse{Status: StatusCorrupt}, nil
	}
	st.state = unitDone
	st.token = ""
	if installed {
		c.ledger.commit(st.id)
	} else {
		// The store already had it (coordinator resume raced the lease
		// table): a duplicate from the ledger's point of view.
		c.ledger.duplicate(st.id)
	}
	if err := c.maybeFinalizeLocked(); err != nil {
		return nil, err
	}
	return &CompleteResponse{Status: StatusOK}, nil
}

// quarantineLocked preserves a rejected upload for post-mortem and requeues
// the unit if this uploader held its lease.
func (c *Coordinator) quarantineLocked(st *unitState, req *CompleteRequest, reason string) {
	c.ledger.quarantine(st.id)
	qdir := filepath.Join(c.jobReq.Dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		c.seq++
		name := fmt.Sprintf("%s-%d.json", sanitize(st.id), c.seq)
		// Best effort: quarantine failing must not fail the protocol.
		_ = fsutil.WriteJSONAtomic(qdir, name, map[string]any{
			"unit":    st.id,
			"worker":  req.Worker,
			"reason":  reason,
			"sha256":  req.SHA256,
			"payload": req.Payload,
		})
	}
	if st.state == unitLeased && st.token == req.Token {
		st.state = unitPending
		st.token = ""
	}
}

func sanitize(id string) string {
	out := []byte(id)
	for i, b := range out {
		if b == '/' || b == ':' {
			out[i] = '_'
		}
	}
	return string(out)
}

// ExpireStale reclaims leases whose heartbeat lapsed or whose grant outlived
// the straggler deadline, returning how many units were requeued. RunExpiry
// calls it periodically; tests call it directly against the clock seam.
func (c *Coordinator) ExpireStale() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.expireLocked()
}

func (c *Coordinator) expireLocked() int {
	if c.units == nil {
		return 0
	}
	now := c.cfg.now()
	n := 0
	for _, id := range c.order {
		st := c.units[id]
		if st.state != unitLeased {
			continue
		}
		deadline := st.lastRenew.Add(c.cfg.LeaseTTL)
		if hard := st.grantedAt.Add(c.cfg.StragglerDeadline); hard.Before(deadline) {
			deadline = hard
		}
		if now.After(deadline) {
			st.state = unitPending
			st.token = ""
			c.ledger.expire(id)
			n++
		}
	}
	return n
}

// RunExpiry drives the expiry scanner until ctx is cancelled or the job
// finalizes.
func (c *Coordinator) RunExpiry(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = c.cfg.withDefaults().LeaseTTL / 4
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.doneCh:
			return
		case <-t.C:
			c.ExpireStale()
		}
	}
}

// maybeFinalizeLocked seals the job once every unit is committed.
func (c *Coordinator) maybeFinalizeLocked() error {
	if c.finalized {
		return nil
	}
	for _, id := range c.order {
		if c.units[id].state != unitDone {
			return nil
		}
	}
	if err := c.job.Finalize(); err != nil {
		return err
	}
	fp, err := c.job.Fingerprint()
	if err != nil {
		return err
	}
	c.fingerprint = fp
	c.finalized = true
	close(c.doneCh)
	return nil
}

// Status snapshots progress.
func (c *Coordinator) Status() *StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &StatusResponse{Draining: c.draining}
	if c.job == nil {
		return st
	}
	st.HasJob = true
	st.Kind = c.job.Kind()
	st.Dir = c.jobReq.Dir
	st.Total = len(c.order)
	for _, id := range c.order {
		if c.units[id].state == unitDone {
			st.Done++
		}
	}
	st.Complete = c.finalized
	st.Fingerprint = c.fingerprint
	return st
}

// Handler exposes the coordinator's RPC surface. All endpoints are POST
// except /v1/status; bodies, responses, and error envelopes are JSON
// (internal/httpserve's shapes, shared with queryd).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/job", func(w http.ResponseWriter, r *http.Request) {
		var req JobRequest
		if !httpserve.DecodeJSON(w, r, &req) {
			return
		}
		if err := c.Submit(&req); err != nil {
			httpserve.Error(w, http.StatusConflict, "%v", err)
			return
		}
		httpserve.WriteJSON(w, map[string]bool{"ok": true})
	})
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !httpserve.DecodeJSON(w, r, &req) {
			return
		}
		resp, err := c.Lease(req.Worker)
		if err != nil {
			httpserve.Error(w, http.StatusConflict, "%v", err)
			return
		}
		httpserve.WriteJSON(w, resp)
	})
	mux.HandleFunc("POST /v1/renew", func(w http.ResponseWriter, r *http.Request) {
		var req RenewRequest
		if !httpserve.DecodeJSON(w, r, &req) {
			return
		}
		httpserve.WriteJSON(w, &RenewResponse{OK: c.Renew(req.Worker, req.UnitID, req.Token)})
	})
	mux.HandleFunc("POST /v1/release", func(w http.ResponseWriter, r *http.Request) {
		var req ReleaseRequest
		if !httpserve.DecodeJSON(w, r, &req) {
			return
		}
		c.Release(req.Worker, req.UnitID, req.Token)
		httpserve.WriteJSON(w, map[string]bool{"ok": true})
	})
	mux.HandleFunc("POST /v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !httpserve.DecodeJSON(w, r, &req) {
			return
		}
		resp, err := c.Complete(&req)
		if err != nil {
			httpserve.Error(w, http.StatusConflict, "%v", err)
			return
		}
		httpserve.WriteJSON(w, resp)
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		httpserve.WriteJSON(w, c.Status())
	})
	return mux
}
