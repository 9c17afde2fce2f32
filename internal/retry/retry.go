// Package retry holds the one retry/backoff schedule the repo's recovery
// paths share. The simulated harvest state machine (internal/core) and the
// distributed generation worker (internal/distrib) face the same problem —
// an RPC that may fail transiently, a peer that may be down, a deadline past
// which waiting costs more than giving up — and before this package each
// grew its own arithmetic. A Policy computes delays; Do drives a wall-clock
// retry loop around it. Callers that run on simulated time (the harvest)
// use Delay directly and schedule on their own engine.
package retry

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Policy describes an exponential backoff schedule.
//
// The delay after attempt n (1-based) is Base·Factor^(n-1), capped at Max,
// then shrunk by up to Jitter·delay using the caller's random source —
// jitter pulls delays earlier, never later, so a deadline bound computed
// from the deterministic schedule stays valid.
type Policy struct {
	// MaxAttempts bounds how many times the operation runs (default 4).
	MaxAttempts int
	// Base is the delay after the first failed attempt (default 100 ms).
	Base time.Duration
	// Factor multiplies the delay each further attempt (default 2).
	Factor float64
	// Max caps a single delay; zero means uncapped.
	Max time.Duration
	// Jitter is the fraction of each delay randomly shaved off, in [0,1].
	// Zero keeps the schedule fully deterministic.
	Jitter float64
}

// RPC is the schedule the HTTP clients retry on when their Policy is zero,
// tuned for a lossy-but-alive network: 6 attempts from 100 ms, doubling to
// at most 2 s, each delay shaved by up to a fifth so that clients which
// failed together do not retry together.
func RPC() Policy {
	return Policy{MaxAttempts: 6, Base: 100 * time.Millisecond, Factor: 2, Max: 2 * time.Second, Jitter: 0.2}
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Factor <= 0 {
		p.Factor = 2
	}
	return p
}

// Delay returns the backoff after attempt n (1-based). rnd, used only when
// the policy has jitter, returns a value in [0,1); nil means no jitter.
// With Factor 2 and a power-of-two Base the result is exact, so callers that
// froze goldens on shift-based doubling (the harvest) see identical delays.
func (p Policy) Delay(n int, rnd func() float64) time.Duration {
	p = p.withDefaults()
	if n < 1 {
		n = 1
	}
	d := float64(p.Base)
	for i := 1; i < n; i++ {
		d *= p.Factor
		if p.Max > 0 && d >= float64(p.Max) {
			d = float64(p.Max)
			break
		}
	}
	if p.Max > 0 && d > float64(p.Max) {
		d = float64(p.Max)
	}
	if p.Jitter > 0 && rnd != nil {
		d -= d * p.Jitter * rnd()
	}
	return time.Duration(d)
}

// Permanent marks err so Do stops retrying and returns it immediately.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err}
}

type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// IsPermanent reports whether err was wrapped by Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Sleeper waits for d or until the context ends. Tests substitute a fake
// clock here to verify schedules without real waiting.
type Sleeper func(ctx context.Context, d time.Duration) error

func defaultSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do runs op until it succeeds, returns a Permanent error, exhausts
// p.MaxAttempts, or ctx ends. op receives the 1-based attempt number.
// sleep and rnd may be nil (real clock, no jitter).
func Do(ctx context.Context, p Policy, sleep Sleeper, rnd func() float64, op func(attempt int) error) error {
	p = p.withDefaults()
	if sleep == nil {
		sleep = defaultSleep
	}
	var last error
	for n := 1; n <= p.MaxAttempts; n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		last = op(n)
		if last == nil {
			return nil
		}
		if IsPermanent(last) {
			return last
		}
		if n == p.MaxAttempts {
			break
		}
		if err := sleep(ctx, p.Delay(n, rnd)); err != nil {
			return err
		}
	}
	return fmt.Errorf("retry: %d attempts: %w", p.MaxAttempts, last)
}
