package distrib

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/fsutil"
	"repro/internal/sweep"
	"repro/internal/switchsim"
)

// tinyFleetConfig keeps real-simulation tests fast: 4 shards, one hour.
func tinyFleetConfig() fleet.Config {
	c := fleet.SmallConfig()
	c.RacksPerRegion = 2
	c.ServersPerRack = 12
	c.Hours = []int{6}
	c.Buckets = 200
	c.Workers = 2
	return c
}

// fakeJob is an in-memory Job so the lease state machine can be exercised
// without simulating anything.
type fakeJob struct {
	mu        sync.Mutex
	units     []string
	committed map[string]bool
	reject    map[string]bool // units whose payloads fail structural commit
	finalized bool
}

func newFakeJob(units ...string) *fakeJob {
	return &fakeJob{
		units:     units,
		committed: map[string]bool{},
		reject:    map[string]bool{},
	}
}

func (j *fakeJob) Kind() string    { return "fake" }
func (j *fakeJob) Units() []string { return j.units }
func (j *fakeJob) Done(id string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.committed[id]
}
func (j *fakeJob) Describe(id string) (*WorkUnit, error) {
	return &WorkUnit{ID: id, Kind: "fake"}, nil
}
func (j *fakeJob) Commit(id string, payload []byte) (bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.reject[id] {
		return false, errors.New("fake: structurally invalid payload")
	}
	if j.committed[id] {
		return false, nil
	}
	j.committed[id] = true
	return true, nil
}
func (j *fakeJob) Finalize() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finalized = true
	return nil
}
func (j *fakeJob) Fingerprint() (string, error) { return "fake-fingerprint", nil }

// fakeClock drives the coordinator's expiry logic deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testCoordinator(t *testing.T, job Job, cfg CoordinatorConfig) (*Coordinator, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	cfg.now = clk.now
	c := NewCoordinator(cfg)
	c.mu.Lock()
	err := c.attachLocked(job, &JobRequest{Kind: "fake", Dir: t.TempDir()})
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return c, clk
}

func mustLease(t *testing.T, c *Coordinator, worker string) *WorkUnit {
	t.Helper()
	resp, err := c.Lease(worker)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Unit == nil {
		t.Fatalf("worker %s got no unit (done=%v retry=%dms)", worker, resp.Done, resp.RetryAfterMs)
	}
	return resp.Unit
}

func completeUnit(t *testing.T, c *Coordinator, worker string, u *WorkUnit, payload []byte) string {
	t.Helper()
	resp, err := c.Complete(&CompleteRequest{
		Worker: worker, UnitID: u.ID, Token: u.Token,
		SHA256: fsutil.SHA256(payload), Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Status
}

func TestLeaseExpiryReassigns(t *testing.T) {
	job := newFakeJob("u1")
	c, clk := testCoordinator(t, job, CoordinatorConfig{LeaseTTL: time.Minute})

	u := mustLease(t, c, "w1")
	if c.ExpireStale() != 0 {
		t.Fatal("fresh lease expired")
	}
	// Heartbeats keep it alive past the bare TTL.
	clk.advance(40 * time.Second)
	if !c.Renew("w1", u.ID, u.Token) {
		t.Fatal("renew of a live lease refused")
	}
	clk.advance(40 * time.Second)
	if n := c.ExpireStale(); n != 0 {
		t.Fatalf("renewed lease expired (%d)", n)
	}
	// Silence past the TTL loses the unit.
	clk.advance(61 * time.Second)
	if n := c.ExpireStale(); n != 1 {
		t.Fatalf("stale lease not expired (%d)", n)
	}
	if c.Renew("w1", u.ID, u.Token) {
		t.Fatal("renew succeeded after expiry")
	}
	// The unit is leasable again; the old token can't release it.
	u2 := mustLease(t, c, "w2")
	if u2.ID != u.ID {
		t.Fatalf("reassigned unit %s, want %s", u2.ID, u.ID)
	}
	c.Release("w1", u.ID, u.Token)
	if got := c.Status().Done; got != 0 {
		t.Fatalf("stale release changed state (done=%d)", got)
	}
	e := c.Ledger().Entry(u.ID)
	if e.Leases != 2 || e.Expired != 1 {
		t.Fatalf("ledger %+v, want 2 leases / 1 expiry", e)
	}
}

func TestStragglerDeadlineCapsRenewals(t *testing.T) {
	job := newFakeJob("u1")
	c, clk := testCoordinator(t, job, CoordinatorConfig{
		LeaseTTL:          time.Minute,
		StragglerDeadline: 5 * time.Minute,
	})
	u := mustLease(t, c, "w1")
	// A worker that renews forever but never finishes still loses the unit
	// at the straggler deadline.
	for i := 0; i < 10; i++ {
		clk.advance(30 * time.Second)
		c.Renew("w1", u.ID, u.Token)
	}
	clk.advance(time.Second)
	if n := c.ExpireStale(); n != 1 {
		t.Fatalf("straggler survived the deadline (%d expired)", n)
	}
}

func TestCompleteIsExactlyOnce(t *testing.T) {
	job := newFakeJob("u1", "u2")
	c, _ := testCoordinator(t, job, CoordinatorConfig{})
	u1 := mustLease(t, c, "w1")
	payload := []byte(`{"v":1}`)

	if got := completeUnit(t, c, "w1", u1, payload); got != StatusOK {
		t.Fatalf("first complete = %s", got)
	}
	// Redelivery (dropped response, duplicated RPC) is a no-op.
	for i := 0; i < 3; i++ {
		if got := completeUnit(t, c, "w1", u1, payload); got != StatusDuplicate {
			t.Fatalf("redelivery %d = %s, want duplicate", i, got)
		}
	}
	// A different worker's answer for the committed unit is also a no-op —
	// stale leases can't double-commit.
	u1b := *u1
	u1b.Token = "stale-token"
	if got := completeUnit(t, c, "w2", &u1b, payload); got != StatusDuplicate {
		t.Fatalf("stale-lease redelivery = %s, want duplicate", got)
	}
	e := c.Ledger().Entry("u1")
	if e.Commits != 1 || e.Duplicates != 4 {
		t.Fatalf("ledger %+v, want 1 commit / 4 duplicates", e)
	}

	// Finishing the second unit finalizes the job exactly once.
	u2 := mustLease(t, c, "w2")
	completeUnit(t, c, "w2", u2, payload)
	select {
	case <-c.Done():
	default:
		t.Fatal("job did not finalize after the last commit")
	}
	st := c.Status()
	if !st.Complete || st.Fingerprint != "fake-fingerprint" {
		t.Fatalf("status %+v after finalize", st)
	}
	if err := c.Ledger().Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptUploadQuarantinesAndRequeues(t *testing.T) {
	job := newFakeJob("u1")
	c, _ := testCoordinator(t, job, CoordinatorConfig{})
	u := mustLease(t, c, "w1")

	// Digest mismatch: declared sha doesn't match the bytes.
	resp, err := c.Complete(&CompleteRequest{
		Worker: "w1", UnitID: u.ID, Token: u.Token,
		SHA256: strings.Repeat("0", 64), Payload: []byte(`{"v":1}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusCorrupt {
		t.Fatalf("digest mismatch = %s, want corrupt", resp.Status)
	}
	// The unit went back to pending and can be leased again.
	u2 := mustLease(t, c, "w2")
	if u2.ID != u.ID {
		t.Fatalf("requeued unit %s, want %s", u2.ID, u.ID)
	}

	// Structural rejection by the job is quarantined the same way.
	job.mu.Lock()
	job.reject["u1"] = true
	job.mu.Unlock()
	if got := completeUnit(t, c, "w2", u2, []byte(`{"v":"garbage"}`)); got != StatusCorrupt {
		t.Fatalf("structural rejection = %s, want corrupt", got)
	}
	e := c.Ledger().Entry("u1")
	if e.Quarantined != 2 || e.Commits != 0 {
		t.Fatalf("ledger %+v, want 2 quarantines / 0 commits", e)
	}
	if err := c.Ledger().Check(); err == nil {
		t.Fatal("ledger Check passed with zero commits")
	}
}

// TestHostileLanesAreQuarantined: a lane is input from outside the
// coordinator. One that decodes but does not fit the job — a tally per
// pending point, each counting one run per hour with no more failed or
// shared than run — is quarantined and its unit leased again, never held
// for the fold.
func TestHostileLanesAreQuarantined(t *testing.T) {
	spec := sweep.Spec{Name: "hostile", Fleet: tinyFleetConfig(), Policies: []switchsim.Policy{switchsim.PolicyComplete}}
	c := NewCoordinator(CoordinatorConfig{})
	if err := c.Submit(&JobRequest{Kind: KindLane, Dir: t.TempDir(), Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	// One hour and two pending points: the baseline and complete-sharing.
	good := sweep.RackTally{Tally: sweep.Tally{Runs: 1}}
	bad := func(runs, failed, shared int) []sweep.RackTally {
		return []sweep.RackTally{good, {Tally: sweep.Tally{Runs: runs, FailedRuns: failed}, Shared: shared}}
	}
	for _, tc := range []struct {
		name string
		lane []sweep.RackTally
	}{
		{"short", []sweep.RackTally{good}},
		{"long", []sweep.RackTally{good, good, good}},
		{"zero runs", bad(0, 0, 0)},
		{"extra run", bad(2, 0, 0)},
		{"negative failed", bad(1, -1, 0)},
		{"failed beyond runs", bad(1, 2, 0)},
		{"negative shared", bad(1, 0, -1)},
		{"shared beyond runs", bad(1, 0, 2)},
	} {
		u := mustLease(t, c, "w1")
		before := c.Ledger().Entry(u.ID).Quarantined
		payload, err := json.Marshal(tc.lane)
		if err != nil {
			t.Fatal(err)
		}
		if got := completeUnit(t, c, "w1", u, payload); got != StatusCorrupt {
			t.Errorf("%s: complete = %s, want corrupt", tc.name, got)
		}
		if n := c.Ledger().Entry(u.ID).Quarantined; n != before+1 {
			t.Errorf("%s: %d quarantines, want %d", tc.name, n, before+1)
		}
		again := mustLease(t, c, "w1")
		if again.ID != u.ID {
			t.Errorf("%s: leased %s after the quarantine, want %s again", tc.name, again.ID, u.ID)
		}
		c.Release("w1", again.ID, again.Token)
	}
	u := mustLease(t, c, "w1")
	payload, _ := json.Marshal([]sweep.RackTally{good, good})
	if got := completeUnit(t, c, "w1", u, payload); got != StatusOK {
		t.Fatalf("fitting lane = %s, want ok", got)
	}
}

func TestDrainStopsLeasingButAcceptsCommits(t *testing.T) {
	job := newFakeJob("u1", "u2")
	c, _ := testCoordinator(t, job, CoordinatorConfig{})
	u := mustLease(t, c, "w1")
	c.Drain()
	resp, err := c.Lease("w2")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Unit != nil {
		t.Fatal("draining coordinator granted a lease")
	}
	// The in-flight unit still lands.
	if got := completeUnit(t, c, "w1", u, []byte(`{}`)); got != StatusOK {
		t.Fatalf("commit during drain = %s", got)
	}
}

func TestSubmitIsIdempotent(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	dir := t.TempDir()
	req := func() *JobRequest {
		cfg := tinyFleetConfig()
		return &JobRequest{Kind: KindShard, Dir: dir, Config: &cfg}
	}
	if err := c.Submit(req()); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(req()); err != nil {
		t.Fatalf("identical re-submit refused: %v", err)
	}
	other := req()
	other.Dir = t.TempDir()
	if err := c.Submit(other); err == nil {
		t.Fatal("different job accepted while one is running")
	}
	st := c.Status()
	if !st.HasJob || st.Kind != KindShard || st.Total == 0 {
		t.Fatalf("status %+v after submit", st)
	}
}
