// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock with nanosecond resolution and a
// priority queue of scheduled events. Events scheduled for the same instant
// fire in scheduling order, which keeps runs fully deterministic for a fixed
// seed and schedule. All other simulator packages (netsim, switchsim,
// transport, fleet) are built on top of this engine.
//
// Performance design (the simulator's binding constraint is per-event cost,
// exactly as the paper argues per-packet cost dominates for Millisampler,
// §4.3). The pending set is split by horizon into three tiers that share the
// one (at, seq) order; the run loop fires the smaller of the wheel's and the
// heap's minimum, after moving into the heap any far window that could hold
// something earlier, so the split only partitions the set and never changes
// firing order:
//
//   - near tier: an event due less than nearHorizon (32 µs) after the instant
//     it is scheduled goes into a calendar wheel of 512 slots × 64 ns — one
//     intrusive list per slot, sorted by (at, seq) with an O(1) tail append,
//     and an occupancy bitmap scanned from the slot of now. These are the
//     in-flight packet events (serializations 40–960 ns, fabric hops
//     10/20 µs), which are 95 % of what a rack fires. 64 ns keeps them in
//     slots of their own; 512 slots cover a hop and stay far below the
//     400 µs delayed ACK;
//   - far tier: an event due later, in one of the 512 windows of one wheel
//     span each (32.768 µs, 16.78 ms in all) from farNext on, goes into that
//     window's unsorted, doubly linked list, with an occupancy bitmap and a
//     cached first occupied window. These are the delayed-ACK and RTO timers,
//     arrivals and clock daemons. Stopping one is an O(1) unlink, and a
//     Timer.Reset to another far deadline re-times it in place, so the rearms
//     that outnumber timer firings 26 to 1 leave no corpse and sift nothing;
//   - heap: a concrete 4-ary min-heap of events holds the far windows the run
//     loop has reached, each moved in whole once the next event could lie in
//     it, plus the rare event beyond the far span (a backed-off RTO, the NTP
//     daemon). Every event carries its heap index, so a stopped Timer leaves
//     the heap at once, like the other two tiers;
//   - every event carries a pre-bound function plus (any, any, int64)
//     argument words and is recycled through a free list once it fires or is
//     stopped, so the per-packet scheduling paths perform zero heap
//     allocations. At/After wrap their closure in one such call.
//
// The clock never passes a queued event, so a wheel event stays within
// [now, now+nearHorizon) until it fires; nearHorizon is more than a slot short
// of the wheel's span, so no event can alias the slot of now. For the same
// reason no far event lies in a window before the clock's, which lets farNext
// follow the clock up to one window past it.
//
// Scheduling returns no handle: a Timer is the one schedule that can be
// stopped, and its generation guard keeps a stale Stop off a recycled event.
package sim

import (
	"fmt"
	"math/bits"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the
// simulation. It is intentionally distinct from time.Time: simulated hosts
// observe wall-clock time only through the clock package, which layers
// NTP-style offset and drift on top of sim.Time.
type Time int64

// Common durations expressed in simulation time units.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// Duration converts t to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns t expressed in milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String formats the timestamp as a duration from simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// FromDuration converts a time.Duration to simulation time.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// CallFunc is the pre-bound form of an event callback: a static function
// receiving its context through two pointer-shaped words and one integer.
// Storing pointers, funcs, or channels in the any slots does not allocate.
type CallFunc func(a1, a2 any, i int64)

// event is a scheduled callback. The callback runs with the engine clock set
// to the event's deadline. An event queued in neither the wheel nor a far
// window is in the heap, at index hi.
type event struct {
	at  Time
	seq uint64

	cfn CallFunc
	a1  any
	a2  any
	i   int64

	next *event // list link while in the wheel or a far window
	prev *event // back link while in a far window

	gen  uint32 // bumped on each recycle; guards stale Timer handles
	hi   int32  // index in the heap while there
	near bool   // queued in the wheel
	far  bool   // queued in a far window
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; simulated concurrency is expressed as interleaved events.
type Engine struct {
	now   Time
	queue []*event // 4-ary min-heap ordered by (at, seq)
	seq   uint64
	fired uint64
	free  []*event // recycled events

	// Near tier: see the package comment.
	nnear int // events in the wheel
	occ   [wheelSlots / 64]uint64
	wheel [wheelSlots]struct{ head, tail *event }

	// Far tier: every far event's window lies in [farNext, farNext+farWindows)
	// and sits in slot window mod farWindows.
	nfar     int   // events in the far windows
	farNext  int64 // lowest window the far tier may hold
	farFirst int64 // first occupied window while nfar > 0
	farOcc   [farWindows / 64]uint64
	far      [farWindows]*event
}

const (
	slotShift   = 6 // 64 ns per slot
	wheelSlots  = 512
	wheelSpan   = wheelSlots << slotShift // 32.768 µs
	nearHorizon = 32 * Microsecond        // < wheelSpan minus one slot

	farShift   = 15 // one wheel span per far window
	farWindows = 512
	farSpan    = farWindows << farShift // 16.78 ms
)

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far, useful for
// instrumentation and benchmarks.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return len(e.queue) + e.nnear + e.nfar }

// ---- 4-ary heap ----

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push queues ev in the tier its distance from now selects.
func (e *Engine) push(ev *event) {
	if ev.at-e.now < nearHorizon {
		e.pushNear(ev)
		return
	}
	if w := windowOf(ev.at); e.farHolds(w) {
		e.linkFar(ev, w)
		return
	}
	e.queue = append(e.queue, ev)
	e.siftUp(len(e.queue) - 1)
}

func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].hi = int32(i)
		i = p
	}
	q[i] = ev
	ev.hi = int32(i)
}

func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	ev := q[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Smallest of up to four children.
		min := c
		last := c + 4
		if last > n {
			last = n
		}
		for j := c + 1; j < last; j++ {
			if eventLess(q[j], q[min]) {
				min = j
			}
		}
		if !eventLess(q[min], ev) {
			break
		}
		q[i] = q[min]
		q[i].hi = int32(i)
		i = min
	}
	q[i] = ev
	ev.hi = int32(i)
}

// removeHeap takes ev out of the heap, from the root when it fires or from
// anywhere when its Timer stops: the last event fills its place and sifts
// whichever way restores the order.
func (e *Engine) removeHeap(ev *event) {
	q := e.queue
	i := int(ev.hi)
	if engineDebug && q[i] != ev {
		panic(fmt.Sprintf("sim: heap event %v/%d is not at its index %d", ev.at, ev.seq, i))
	}
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	if i < n {
		q[i] = last
		e.siftDown(i)
		if q[i] == last {
			e.siftUp(i)
		}
	}
}

// ---- calendar wheel ----

// slotOf returns the wheel slot of instant t.
func slotOf(t Time) int { return int(t>>slotShift) & (wheelSlots - 1) }

// pushNear links ev into its slot, keeping the chain sorted by (at, seq). A
// new event carries the largest seq so far, so it goes after every event with
// the same or an earlier deadline — almost always the tail.
func (e *Engine) pushNear(ev *event) {
	if engineDebug && (ev.at < e.now || ev.at>>slotShift-e.now>>slotShift >= wheelSlots) {
		panic(fmt.Sprintf("sim: near event at %v is not within one wheel turn of now %v", ev.at, e.now))
	}
	s := slotOf(ev.at)
	sl := &e.wheel[s]
	ev.near = true
	e.nnear++
	switch {
	case sl.head == nil:
		sl.head, sl.tail = ev, ev
		e.occ[s>>6] |= 1 << (s & 63)
	case ev.at >= sl.tail.at:
		sl.tail.next = ev
		sl.tail = ev
	case ev.at < sl.head.at:
		ev.next = sl.head
		sl.head = ev
	default:
		p := sl.head
		for p.next.at <= ev.at { // stops before the tail: tail.at > ev.at
			p = p.next
		}
		ev.next = p.next
		p.next = ev
	}
}

// nearSlot returns the slot holding the earliest wheel event, or -1 when the
// wheel is empty. Every wheel event lies in [now, now+nearHorizon), less than
// one turn ahead, so the first occupied slot at or after the slot of now —
// wrapping once — holds the minimum.
func (e *Engine) nearSlot() int {
	if e.nnear == 0 {
		return -1
	}
	s := slotOf(e.now)
	w := s >> 6
	if m := e.occ[w] >> (s & 63); m != 0 {
		return s + bits.TrailingZeros64(m)
	}
	for {
		w = (w + 1) & (len(e.occ) - 1)
		if m := e.occ[w]; m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
}

// removeNear unlinks ev from slot s; prev is its predecessor in the chain, nil
// when ev is the head.
func (e *Engine) removeNear(s int, prev, ev *event) {
	sl := &e.wheel[s]
	if prev == nil {
		sl.head = ev.next
	} else {
		prev.next = ev.next
	}
	if sl.tail == ev {
		sl.tail = prev
	}
	if sl.head == nil {
		e.occ[s>>6] &^= 1 << (s & 63)
	}
	ev.next = nil
	ev.near = false
	e.nnear--
}

// cancelNear unlinks a stopped event from the wheel. A slot chain holds a
// handful of events, so the walk to its predecessor is cheap.
func (e *Engine) cancelNear(ev *event) {
	s := slotOf(ev.at)
	var prev *event
	for p := e.wheel[s].head; p != ev; p = p.next {
		prev = p
	}
	e.removeNear(s, prev, ev)
}

// ---- far windows ----

// windowOf returns the far window of instant t.
func windowOf(t Time) int64 { return int64(t >> farShift) }

// farHolds advances farNext to the clock's window and reports whether window
// w lies in [farNext, farNext+farWindows). The advance is always safe: no far
// event lies in a window before the clock's.
func (e *Engine) farHolds(w int64) bool {
	if c := windowOf(e.now); c > e.farNext {
		e.farNext = c
	}
	return uint64(w-e.farNext) < farWindows
}

// linkFar puts ev at the head of window w's list.
func (e *Engine) linkFar(ev *event, w int64) {
	s := int(w) & (farWindows - 1)
	ev.far = true
	ev.next = e.far[s]
	if ev.next != nil {
		ev.next.prev = ev
	} else {
		e.farOcc[s>>6] |= 1 << (s & 63)
	}
	e.far[s] = ev
	if e.nfar == 0 || w < e.farFirst {
		e.farFirst = w
	}
	e.nfar++
}

// unlinkFar takes ev out of its window's list.
func (e *Engine) unlinkFar(ev *event) {
	w := windowOf(ev.at)
	s := int(w) & (farWindows - 1)
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		e.far[s] = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	ev.next, ev.prev, ev.far = nil, nil, false
	e.nfar--
	if e.far[s] == nil {
		e.farOcc[s>>6] &^= 1 << (s & 63)
		if w == e.farFirst && e.nfar > 0 {
			e.farFirst = e.farFrom(w + 1)
		}
	}
}

// farFrom returns the first occupied window at or after w. The far tier must
// not be empty, and w must not precede farNext or any occupied window.
func (e *Engine) farFrom(w int64) int64 {
	s := int(w) & (farWindows - 1)
	i := s >> 6
	if m := e.farOcc[i] >> (s & 63); m != 0 {
		return w + int64(bits.TrailingZeros64(m))
	}
	for {
		i = (i + 1) & (len(e.farOcc) - 1)
		if m := e.farOcc[i]; m != 0 {
			return w + int64((i<<6+bits.TrailingZeros64(m)-s)&(farWindows-1))
		}
	}
}

// flushFar moves the first occupied far window, which the run loop has
// reached, into the heap.
func (e *Engine) flushFar() {
	w := e.farFirst
	for s := int(w) & (farWindows - 1); e.far[s] != nil; {
		ev := e.far[s]
		e.unlinkFar(ev)
		e.queue = append(e.queue, ev)
		e.siftUp(len(e.queue) - 1)
	}
	e.farNext = w + 1
}

// retime moves the far event ev to a new far deadline in place and reports
// whether it could. It spends the next seq, so ev ends with exactly the
// (at, seq) that stopping it and scheduling afresh would give; what is saved
// is the recycle and, within one window, the unlink and relink.
func (e *Engine) retime(ev *event, at Time) bool {
	w := windowOf(at)
	if !ev.far || at-e.now < nearHorizon || !e.farHolds(w) {
		return false
	}
	moved := w != windowOf(ev.at)
	if moved {
		e.unlinkFar(ev)
	}
	ev.at, ev.seq = at, e.seq
	e.seq++
	if moved {
		e.linkFar(ev, w)
	}
	return true
}

// recycle returns a fired or stopped event to the free list. The generation
// bump invalidates any stale Timer handle to the old incarnation.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.cfn = nil
	ev.a1 = nil
	ev.a2 = nil
	ev.i = 0
	e.free = append(e.free, ev)
}

// schedule queues the pre-bound callback fn(a1, a2, i) at absolute time at in
// an event from the free list, or a new one.
func (e *Engine) schedule(at Time, fn CallFunc, a1, a2 any, i int64) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = at
	ev.seq = e.seq
	e.seq++
	ev.cfn = fn
	ev.a1 = a1
	ev.a2 = a2
	ev.i = i
	e.push(ev)
	return ev
}

// callClosure is the pre-bound form of an At/After closure.
func callClosure(a1, _ any, _ int64) { a1.(func())() }

// At schedules fn to run at absolute time at. Scheduling in the past panics:
// it always indicates a logic error in a discrete-event model. The schedule
// cannot be cancelled; use a Timer for one that may be.
func (e *Engine) At(at Time, fn func()) { e.schedule(at, callClosure, fn, nil, 0) }

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) { e.AfterCall(d, callClosure, fn, nil, 0) }

// AtCall schedules the pre-bound callback fn(a1, a2, i) at absolute time at.
// Unlike At it needs no closure, so it is allocation-free in steady state.
func (e *Engine) AtCall(at Time, fn CallFunc, a1, a2 any, i int64) {
	e.schedule(at, fn, a1, a2, i)
}

// AfterCall schedules the pre-bound callback fn(a1, a2, i) to run d after the
// current time.
func (e *Engine) AfterCall(d Time, fn CallFunc, a1, a2 any, i int64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.schedule(e.now+d, fn, a1, a2, i)
}

// cancelGen takes ev out of whichever tier holds it and recycles it, but only
// if it is still the incarnation with generation gen: a stale Timer handle
// (the event fired and was recycled) is a no-op.
func (e *Engine) cancelGen(ev *event, gen uint32) {
	if ev.gen != gen {
		return
	}
	switch {
	case ev.near:
		e.cancelNear(ev)
	case ev.far:
		e.unlinkFar(ev)
	default:
		e.removeHeap(ev)
	}
	e.recycle(ev)
}

// popNext removes and returns the earliest event if it is due at or before
// limit, nil otherwise. This is the one place the tiers meet: once no far
// window at or before the candidate's (and limit's) is left, the smaller of
// the wheel's and the heap's minimum under (at, seq) is the global minimum,
// since a far event in a later window is later than both.
func (e *Engine) popNext(limit Time) *event {
	for {
		var ev *event
		if len(e.queue) > 0 {
			ev = e.queue[0]
		}
		s := e.nearSlot()
		if s >= 0 && (ev == nil || eventLess(e.wheel[s].head, ev)) {
			ev = e.wheel[s].head
		} else {
			s = -1
		}
		if e.nfar > 0 {
			c := limit
			if ev != nil {
				c = min(c, ev.at)
			}
			if e.farFirst <= windowOf(c) {
				e.flushFar()
				continue
			}
		}
		if ev == nil || ev.at > limit {
			return nil
		}
		if engineDebug {
			e.checkPop(ev, s)
		}
		if s >= 0 {
			e.removeNear(s, nil, ev)
		} else {
			e.removeHeap(ev)
		}
		return ev
	}
}

// step fires the earliest event if it is due at or before limit and reports
// whether it did. The event is recycled before the callback runs, so a
// callback can immediately reuse the object for its own rescheduling.
func (e *Engine) step(limit Time) bool {
	ev := e.popNext(limit)
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.fired++
	cfn, a1, a2, i := ev.cfn, ev.a1, ev.a2, ev.i
	e.recycle(ev)
	cfn(a1, a2, i)
	return true
}

const maxTime = Time(1<<63 - 1)

// Step executes the next pending event, advancing the clock to its deadline.
// It reports whether an event was executed.
func (e *Engine) Step() bool { return e.step(maxTime) }

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.step(maxTime) {
	}
}

// RunUntil executes events with deadlines at or before end, then advances the
// clock to exactly end. Events scheduled beyond end remain queued.
func (e *Engine) RunUntil(end Time) {
	for e.step(end) {
	}
	if e.now < end {
		e.now = end
	}
}

// RunFor executes events for a span d of virtual time from the current clock.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
