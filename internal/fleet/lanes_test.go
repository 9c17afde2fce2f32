package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// laneCall is one RunLanes step the test holds: the step blocks until the
// test sends the error it returns.
type laneCall struct {
	lane, k int
	ret     chan error
}

// laneRig runs RunLanes with steps that block until the test releases them,
// so the test chooses the order in which steps finish, and checks every step
// and passed call as it happens.
type laneRig struct {
	t                     *testing.T
	workers, lanes, steps int
	calls                 chan laneCall
	result                chan error

	mu       sync.Mutex
	finished []int // steps each lane has finished
	passes   []int // passed's arguments, in call order

	// The test's view: steps each lane finished, calls in flight and
	// calls taken so far.
	done     []int
	inflight map[int]laneCall
	taken    int
}

func startLanes(ctx context.Context, t *testing.T, workers, lanes, steps int) *laneRig {
	r := &laneRig{
		t: t, workers: workers, lanes: lanes, steps: steps,
		calls: make(chan laneCall), result: make(chan error, 1),
		finished: make([]int, lanes), done: make([]int, lanes), inflight: map[int]laneCall{},
	}
	go func() { r.result <- RunLanes(ctx, workers, lanes, steps, r.step, r.passed) }()
	return r
}

func (r *laneRig) step(l, k int) error {
	r.mu.Lock()
	if k != r.finished[l] {
		r.t.Errorf("lane %d started step %d having finished %d", l, k, r.finished[l])
	}
	r.mu.Unlock()
	c := laneCall{l, k, make(chan error)}
	r.calls <- c
	err := <-c.ret
	if err == nil {
		r.mu.Lock()
		r.finished[l]++
		r.mu.Unlock()
	}
	return err
}

func (r *laneRig) passed(k int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.passes) != k {
		r.t.Errorf("passed(%d) after passed%v", k, r.passes)
	}
	for l, f := range r.finished {
		if f <= k {
			r.t.Errorf("passed(%d) with lane %d at %d steps", k, l, f)
		}
	}
	r.passes = append(r.passes, k)
	return nil
}

// next waits for the scheduler's next step call.
func (r *laneRig) next() laneCall {
	select {
	case c := <-r.calls:
		return c
	case <-time.After(10 * time.Second):
		r.t.Fatalf("no step started; in flight %v, finished %v", r.inflight, r.done)
		return laneCall{}
	}
}

// settle waits until every worker that can hold a lane holds one. A release
// lets one worker take at most one lane, so each call after the first
// min(workers, lanes) must be the free lane furthest behind, the lowest on a
// tie.
func (r *laneRig) settle() {
	for {
		withWork := 0
		for l := range r.done {
			if r.done[l] < r.steps {
				withWork++
			}
		}
		if len(r.inflight) >= min(r.workers, withWork) {
			return
		}
		c := r.next()
		if r.taken < min(r.workers, r.lanes) {
			// The first takes race each other: lanes 0… at step 0, in any order.
			if c.k != 0 || c.lane >= min(r.workers, r.lanes) {
				r.t.Errorf("first takes include lane %d step %d", c.lane, c.k)
			}
		} else if want := r.behind(); c.lane != want {
			r.t.Errorf("took lane %d (finished %v, in flight %v), want lane %d", c.lane, r.done, r.inflight, want)
		}
		r.taken++
		r.inflight[c.lane] = c
	}
}

// behind is the free lane with work that is furthest behind.
func (r *laneRig) behind() int {
	best := -1
	for l := range r.done {
		if _, busy := r.inflight[l]; !busy && r.done[l] < r.steps && (best < 0 || r.done[l] < r.done[best]) {
			best = l
		}
	}
	return best
}

// release lets the highest lane in flight finish its step with err, so lane
// 0 lags and the frontier waits on it.
func (r *laneRig) release(err error) {
	hi := r.highest()
	c := r.inflight[hi]
	delete(r.inflight, hi)
	if err == nil {
		r.done[hi]++
	}
	c.ret <- err
}

// highest is the highest lane in flight.
func (r *laneRig) highest() int {
	hi := -1
	for l := range r.inflight {
		hi = max(hi, l)
	}
	return hi
}

// drain releases every call in flight and any that starts after, returning
// the calls that started and RunLanes' result.
func (r *laneRig) drain() ([]laneCall, error) {
	for _, c := range r.inflight {
		c.ret <- nil
	}
	var late []laneCall
	for {
		select {
		case c := <-r.calls:
			late = append(late, c)
			c.ret <- nil
		case err := <-r.result:
			return late, err
		case <-time.After(10 * time.Second):
			r.t.Fatal("RunLanes did not return")
		}
	}
}

// workersAlive counts the goroutines inside a RunLanes worker. A worker that
// has exited no longer counts; one that is exiting still does, so waiting for
// the count to fall never stops early.
func workersAlive() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "fleet.RunLanes.func") {
			n++
		}
	}
	return n
}

// TestRunLanes holds each step on a channel and releases the highest lane in
// flight first, so lanes run ahead of lane 0 and the frontier waits on it. At
// every width each lane runs its steps in order, each once; a free worker
// takes the free lane furthest behind; passed(k) comes once per k, in order,
// only after every lane has finished k. A step error is returned and stops
// new work, and so does cancelling ctx.
func TestRunLanes(t *testing.T) {
	const lanes, steps = 3, 3
	errStep := errors.New("step failed")
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r := startLanes(context.Background(), t, workers, lanes, steps)
			for r.settle(); len(r.inflight) > 0; r.settle() {
				r.release(nil)
			}
			if err := <-r.result; err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(r.finished) != "[3 3 3]" || fmt.Sprint(r.passes) != "[0 1 2]" {
				t.Errorf("finished %v, passed %v; want every lane at %d and passed [0 1 2]", r.finished, r.passes, steps)
			}
		})

		// Lane 1 fails its step 1 while other lanes have steps left. The
		// test waits for the failing worker to exit, which it does once it
		// has recorded the failure, and then lets the steps in flight
		// finish: no step starts after them.
		t.Run(fmt.Sprintf("error/workers=%d", workers), func(t *testing.T) {
			r := startLanes(context.Background(), t, workers, lanes, steps)
			for r.settle(); ; r.settle() {
				if c, ok := r.inflight[1]; ok && c.k == 1 && r.highest() == 1 {
					r.release(errStep)
					break
				}
				r.release(nil)
			}
			deadline := time.Now().Add(10 * time.Second)
			for workersAlive() > len(r.inflight) {
				if time.Now().After(deadline) {
					t.Fatal("the failing worker did not exit")
				}
				runtime.Gosched()
			}
			late, err := r.drain()
			if !errors.Is(err, errStep) || len(late) > 0 {
				t.Errorf("RunLanes = %v with %v started after the failure, want the step's error and none", err, late)
			}
		})

		// ctx is cancelled with steps in flight: they finish, nothing else
		// starts, and RunLanes returns ctx's error.
		t.Run(fmt.Sprintf("cancel/workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := startLanes(ctx, t, workers, lanes, steps)
			r.settle()
			r.release(nil)
			r.settle()
			cancel()
			late, err := r.drain()
			if !errors.Is(err, context.Canceled) || len(late) > 0 {
				t.Errorf("RunLanes = %v with %v started after the cancel, want %v and none", err, late, context.Canceled)
			}
		})
	}
}
