package distrib

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/fsutil"
	"repro/internal/sweep"
)

// ErrAbandon is returned by a chaos kill hook: the worker abandons the
// unit with no upload and no release, exactly what a SIGKILL looks like to
// the coordinator — a lease that silently stops heartbeating.
var ErrAbandon = errors.New("distrib: unit abandoned")

// Worker pulls units from a coordinator, computes them, and uploads the
// results. It holds no durable state: everything it produces is re-derivable
// and everything it uploads is verified, so killing a worker at any moment
// costs only time.
type Worker struct {
	Client *Client
	// SimWorkers is ignored: every unit is one rack, which one simulation
	// worker runs.
	SimWorkers int
	// Log, if non-nil, receives progress lines.
	Log func(format string, args ...any)

	// BeforeUpload is the chaos seam, called with each computed unit before
	// its upload. Returning ErrAbandon drops the unit on the floor
	// (simulated SIGKILL); any other error is fatal to the worker.
	BeforeUpload func(unit *WorkUnit) error
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		w.Log(format, args...)
	}
}

// Run leases, computes, and uploads units until the coordinator reports the
// job done or ctx is cancelled. Cancellation is the graceful drain: the
// in-flight computation aborts between rack-hours, the lease is released so
// the coordinator requeues immediately instead of waiting for expiry, and
// Run returns ctx.Err().
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, err := w.Client.Lease(ctx)
		if err != nil {
			return err
		}
		if lease.Done {
			w.logf("job complete; exiting")
			return nil
		}
		if lease.Unit == nil {
			wait := time.Duration(lease.RetryAfterMs) * time.Millisecond
			if wait <= 0 {
				wait = time.Second
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
			continue
		}
		if err := w.runUnit(ctx, lease.Unit); err != nil {
			if errors.Is(err, ErrAbandon) {
				w.logf("abandoning %s (chaos kill)", lease.Unit.ID)
				return nil
			}
			return err
		}
	}
}

// runUnit computes and uploads one leased unit, heartbeating throughout.
func (w *Worker) runUnit(ctx context.Context, unit *WorkUnit) error {
	w.logf("leased %s (ttl %dms)", unit.ID, unit.LeaseTTLMs)

	// The compute context is cancelled by drain (parent) or by losing the
	// lease (heartbeat discovers the coordinator reassigned the unit —
	// finishing the computation would only waste cycles; correctness never
	// depended on it).
	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeat(cctx, unit, cancel)
	}()

	payload, err := w.compute(cctx, unit)
	cancel(nil)
	<-hbDone
	if err != nil {
		if lost := context.Cause(cctx); lost != nil && errors.Is(err, context.Canceled) {
			if errors.Is(lost, errLeaseLost) {
				w.logf("lost lease on %s; abandoning computation", unit.ID)
				return nil
			}
			// Drain: hand the unit back so it requeues immediately. Use a
			// fresh short-lived context — ours is the one that was cancelled.
			rctx, rcancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer rcancel()
			if rerr := w.Client.Release(rctx, unit.ID, unit.Token); rerr != nil {
				w.logf("release of %s failed (lease will expire instead): %v", unit.ID, rerr)
			}
			return err
		}
		return fmt.Errorf("distrib: computing %s: %w", unit.ID, err)
	}

	if w.BeforeUpload != nil {
		if err := w.BeforeUpload(unit); err != nil {
			return err
		}
	}
	status, err := w.Client.Complete(ctx, unit.ID, unit.Token, payload, fsutil.SHA256(payload))
	if err != nil {
		return fmt.Errorf("distrib: uploading %s: %w", unit.ID, err)
	}
	switch status {
	case StatusOK:
		w.logf("committed %s (%d bytes)", unit.ID, len(payload))
	case StatusDuplicate:
		w.logf("%s was already committed elsewhere", unit.ID)
	case StatusCorrupt:
		// The coordinator rejected our bytes (corrupted in flight) and
		// requeued the unit; drop the local result — a later lease recomputes
		// it from scratch.
		w.logf("upload of %s arrived corrupt; unit requeued", unit.ID)
	default:
		return fmt.Errorf("distrib: upload of %s: unexpected status %q", unit.ID, status)
	}
	return nil
}

// errLeaseLost marks compute-context cancellation caused by lease loss
// rather than drain.
var errLeaseLost = errors.New("distrib: lease lost")

// heartbeat renews the lease at TTL/3 until the compute context ends; a
// failed renewal (lease reassigned) cancels the computation with
// errLeaseLost.
func (w *Worker) heartbeat(ctx context.Context, unit *WorkUnit, cancel context.CancelCauseFunc) {
	ttl := time.Duration(unit.LeaseTTLMs) * time.Millisecond
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	t := time.NewTicker(ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			ok, err := w.Renew(ctx, unit)
			if err != nil {
				// Transient renewal failure past its retries: keep computing;
				// either a later beat lands or the lease expires and the
				// upload is judged by the idempotent commit like any other.
				w.logf("renew of %s failed: %v", unit.ID, err)
				continue
			}
			if !ok {
				cancel(errLeaseLost)
				return
			}
		}
	}
}

// Renew is a seam-thin wrapper so tests can observe heartbeats.
func (w *Worker) Renew(ctx context.Context, unit *WorkUnit) (bool, error) {
	return w.Client.Renew(ctx, unit.ID, unit.Token)
}

// compute produces the unit's payload bytes. Determinism in (unit) alone is
// what makes any two workers' answers interchangeable.
func (w *Worker) compute(ctx context.Context, unit *WorkUnit) ([]byte, error) {
	switch unit.Kind {
	case KindShard:
		sp, err := dataset.EncodeShard(ctx, unit.Config, unit.Region, unit.RackID)
		if err != nil {
			return nil, err
		}
		return json.Marshal(sp)
	case KindLane:
		lane, err := sweep.ComputeLane(ctx, unit.Config, unit.Points, unit.Region, unit.RackID)
		if err != nil {
			return nil, err
		}
		return json.Marshal(lane)
	default:
		return nil, fmt.Errorf("distrib: unknown unit kind %q", unit.Kind)
	}
}
