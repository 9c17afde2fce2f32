package sim

import "testing"

func TestTimerFireAndRearm(t *testing.T) {
	eng := NewEngine()
	fired := 0
	tm := eng.NewTimer(func() { fired++ })
	if tm.Armed() {
		t.Fatal("new timer reports armed")
	}
	tm.Reset(10)
	if !tm.Armed() {
		t.Fatal("Reset did not arm the timer")
	}
	eng.RunUntil(20)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
	// The same handle rearms indefinitely.
	tm.Reset(5)
	tm.Reset(7) // rearm replaces the pending deadline
	eng.RunUntil(40)
	if fired != 2 {
		t.Fatalf("fired = %d after rearm, want 2 (Reset must replace, not add)", fired)
	}
	if got := eng.Now(); got != 40 {
		t.Fatalf("Now() = %v, want 40", got)
	}
}

func TestTimerStopPreventsFire(t *testing.T) {
	eng := NewEngine()
	fired := 0
	tm := eng.NewTimer(func() { fired++ })
	tm.Reset(10)
	tm.Stop()
	if tm.Armed() {
		t.Fatal("timer armed after Stop")
	}
	eng.RunUntil(50)
	if fired != 0 {
		t.Fatalf("fired = %d after Stop, want 0", fired)
	}
	// Stopping again (and stopping a never-armed timer) is a no-op.
	tm.Stop()
}

// TestTimerStaleHandleDoesNotCancelReusedEvent exercises the generation
// guard: after a timer fires, its pooled event may be reused by an unrelated
// schedule; cancelling through the stale (event, generation) pair must not
// touch the new incarnation.
func TestTimerStaleHandleDoesNotCancelReusedEvent(t *testing.T) {
	eng := NewEngine()
	tm := eng.NewTimer(func() {})
	tm.Reset(5)
	ev, gen := tm.ev, tm.gen
	eng.RunUntil(10) // fires; the event returns to the free list

	calls := 0
	eng.AfterCall(5, func(a1, _ any, _ int64) { *(a1.(*int))++ }, &calls, nil, 0)
	eng.cancelGen(ev, gen) // stale: generation has moved on
	eng.RunUntil(20)
	if calls != 1 {
		t.Fatalf("reused event fired %d times, want 1 (stale cancel must be a no-op)", calls)
	}
}

// TestHeapStopPreservesFiringOrder stops two thirds of a heap of timers,
// which takes each from wherever it sits, and checks that the heap holds only
// the survivors and that they still fire in exact (time, seq) order, i.e.
// deadline order with scheduling order as the tie-break. The deadlines lie
// beyond the far span, the only place an unreached event still waits in the
// heap.
func TestHeapStopPreservesFiringOrder(t *testing.T) {
	eng := NewEngine()
	const n = 256
	var got []int
	timers := make([]*Timer, n)
	for i := 0; i < n; i++ {
		i := i
		timers[i] = eng.NewTimer(func() { got = append(got, i) })
		// Many deadline collisions so the seq tie-break is exercised.
		timers[i].Reset(farSpan + Time(i%7))
	}
	if len(eng.queue) != n {
		t.Fatalf("heap holds %d of %d events beyond the far span", len(eng.queue), n)
	}
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			timers[i].Stop()
		}
	}
	survivors := (n + 2) / 3
	if eng.Pending() != survivors || len(eng.queue) != survivors {
		t.Fatalf("Pending() = %d, heap %d after stops, want %d", eng.Pending(), len(eng.queue), survivors)
	}

	var want []int
	for at := 0; at < 7; at++ {
		for i := 0; i < n; i += 3 {
			if i%7 == at {
				want = append(want, i)
			}
		}
	}
	eng.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("firing position %d: got event %d, want %d", k, got[k], want[k])
		}
	}
}

// TestPendingExcludesCancelled pins the Pending contract in every tier: a
// stopped timer leaves the wheel, its far window or the heap at once, and a
// second Stop changes nothing.
func TestPendingExcludesCancelled(t *testing.T) {
	eng := NewEngine()
	near, far, heap := eng.NewTimer(func() {}), eng.NewTimer(func() {}), eng.NewTimer(func() {})
	near.Reset(Microsecond)
	far.Reset(Millisecond)
	heap.Reset(2 * farSpan)
	eng.AfterCall(Millisecond, testInc, new(int), nil, 0)
	if eng.nnear != 1 || eng.nfar != 2 || len(eng.queue) != 1 || eng.Pending() != 4 {
		t.Fatalf("wheel %d, far %d, heap %d, Pending() %d; want 1, 2, 1, 4", eng.nnear, eng.nfar, len(eng.queue), eng.Pending())
	}
	for i, tm := range []*Timer{near, far, heap} {
		tm.Stop()
		tm.Stop()
		if got, want := eng.Pending(), 3-i; got != want {
			t.Fatalf("Pending() = %d after stopping timer %d, want %d", got, i, want)
		}
	}
	if eng.nnear != 0 || eng.nfar != 1 || len(eng.queue) != 0 {
		t.Fatalf("wheel %d, far %d, heap %d after the stops; want 0, 1, 0", eng.nnear, eng.nfar, len(eng.queue))
	}
	eng.Run()
	if got := eng.Pending(); got != 0 || eng.Fired() != 1 {
		t.Fatalf("Pending() = %d, Fired() = %d after drain, want 0 and 1", got, eng.Fired())
	}
}

func testInc(a1, _ any, _ int64) { *(a1.(*int))++ }

// TestAtCallZeroAlloc pins the core claim of the event-engine overhaul:
// scheduling and firing a pooled call event allocates nothing in steady state.
func TestAtCallZeroAlloc(t *testing.T) {
	eng := NewEngine()
	n := 0
	// Warm the free list and the queue's backing array.
	eng.AfterCall(1, testInc, &n, nil, 0)
	eng.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		eng.AfterCall(1, testInc, &n, nil, 0)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("AtCall schedule+fire allocates %.1f objects per event, want 0", allocs)
	}
}

// TestTimerRearmZeroAlloc pins the allocation-free rearm contract the
// transport retransmit and delayed-ACK timers rely on.
func TestTimerRearmZeroAlloc(t *testing.T) {
	eng := NewEngine()
	tm := eng.NewTimer(func() {})
	tm.Reset(1)
	eng.RunFor(2)
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Reset(1)
		eng.RunFor(2)
	})
	if allocs != 0 {
		t.Fatalf("Timer rearm allocates %.1f objects per cycle, want 0", allocs)
	}
	// Rearm-before-fire (the armRTO pattern) must also be free.
	allocs = testing.AllocsPerRun(1000, func() {
		tm.Reset(5)
		tm.Reset(3)
		eng.RunFor(4)
	})
	if allocs != 0 {
		t.Fatalf("Timer cancel+rearm allocates %.1f objects per cycle, want 0", allocs)
	}
}
