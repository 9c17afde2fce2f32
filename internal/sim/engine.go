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
// §4.3). The pending set is split by horizon into two tiers that share the
// one (at, seq) order; the run loop fires whichever tier's minimum is smaller,
// so the split only partitions the set and never changes firing order:
//
//   - near tier: an event due less than nearHorizon (32 µs) after the instant
//     it is scheduled goes into a calendar wheel of 512 slots × 64 ns — one
//     intrusive list per slot, sorted by (at, seq) with an O(1) tail append,
//     and an occupancy bitmap scanned from the slot of now. These are the
//     in-flight packet events (serializations 40–960 ns, fabric hops
//     10/20 µs): ~17 of the ~226 events a rack keeps queued, 95 % of those it
//     fires. 64 ns keeps them in slots of their own; 512 slots cover a hop
//     and stay far below the 400 µs delayed ACK;
//   - far tier: the rest (~63 delayed-ACK/RTO timers, ~72 arrivals and clock
//     daemons, ~74 cancelled timer corpses) stays in a concrete 4-ary
//     min-heap of *Event that a packet hop no longer sifts. Cancelled events
//     are compacted out once they outnumber live ones, so heavy timer churn
//     (crash-injected retransmit storms) never degrades quadratically;
//   - events scheduled through AtCall/AfterCall and Timer carry a pre-bound
//     function plus (any, any, int64) argument words instead of a closure,
//     and are recycled through a free list, so the per-packet scheduling
//     paths perform zero heap allocations.
//
// The clock never passes a queued event, so a wheel event stays within
// [now, now+nearHorizon) until it fires; nearHorizon is more than a slot short
// of the wheel's span, so no event can alias the slot of now.
//
// Events returned by At/After are plain heap-allocated objects: their
// handles stay valid indefinitely, which keeps Cancel safe for callers that
// retain them. Only handle-free call events and Timer internals are pooled.
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

// Event is a scheduled callback. The callback runs with the engine clock set
// to the event's deadline.
type Event struct {
	at  Time
	seq uint64

	fn  func()   // closure form (At/After)
	cfn CallFunc // pre-bound form (AtCall/AfterCall, Timer)
	a1  any
	a2  any
	i   int64

	next *Event // slot chain link while in the wheel

	gen      uint32 // bumped on each recycle; guards stale Timer handles
	queued   bool
	near     bool // queued in the wheel rather than the heap
	cancel   bool
	poolable bool // recycled into the engine free list after popping
}

// Cancelled reports whether the event was cancelled before it fired.
func (e *Event) Cancelled() bool { return e.cancel }

// At returns the deadline the event was scheduled for.
func (e *Event) At() Time { return e.at }

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; simulated concurrency is expressed as interleaved events.
type Engine struct {
	now     Time
	queue   []*Event // far tier: 4-ary min-heap ordered by (at, seq)
	seq     uint64
	fired   uint64
	ncancel int // cancelled events still in the heap
	halted  bool
	free    []*Event // recycled poolable events

	// Near tier: see the package comment.
	nnear int // events in the wheel
	occ   [wheelSlots / 64]uint64
	wheel [wheelSlots]struct{ head, tail *Event }
}

const (
	slotShift   = 6 // 64 ns per slot
	wheelSlots  = 512
	wheelSpan   = wheelSlots << slotShift // 32.768 µs
	nearHorizon = 32 * Microsecond        // < wheelSpan minus one slot
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

// Pending returns the number of live (not cancelled) events still queued.
func (e *Engine) Pending() int { return len(e.queue) - e.ncancel + e.nnear }

// ---- 4-ary heap ----

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push queues ev in the tier its distance from now selects.
func (e *Engine) push(ev *Event) {
	ev.queued = true
	if ev.at-e.now < nearHorizon {
		e.pushNear(ev)
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
		i = p
	}
	q[i] = ev
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
		i = min
	}
	q[i] = ev
}

// popMin removes and returns the earliest event (cancelled or not).
func (e *Engine) popMin() *Event {
	q := e.queue
	ev := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	e.queue = q[:n]
	if n > 0 {
		e.siftDown(0)
	}
	ev.queued = false
	return ev
}

// ---- calendar wheel ----

// slotOf returns the wheel slot of instant t.
func slotOf(t Time) int { return int(t>>slotShift) & (wheelSlots - 1) }

// pushNear links ev into its slot, keeping the chain sorted by (at, seq). A
// new event carries the largest seq so far, so it goes after every event with
// the same or an earlier deadline — almost always the tail.
func (e *Engine) pushNear(ev *Event) {
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
func (e *Engine) removeNear(s int, prev, ev *Event) {
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
	ev.queued = false
	ev.near = false
	e.nnear--
}

// cancelNear drops a cancelled event from the wheel on the spot. A slot chain
// holds a handful of events, so the walk to its predecessor is cheaper than
// keeping corpses, which would also lengthen every sorted insert behind them.
func (e *Engine) cancelNear(ev *Event) {
	s := slotOf(ev.at)
	var prev *Event
	for p := e.wheel[s].head; p != ev; p = p.next {
		prev = p
	}
	e.removeNear(s, prev, ev)
	e.recycle(ev)
}

// compact removes cancelled events from the heap in one pass and restores
// the heap property. The (at, seq) total order is unaffected, so firing
// order is exactly what it would have been under lazy popping.
func (e *Engine) compact() {
	q := e.queue
	kept := q[:0]
	for _, ev := range q {
		if ev.cancel {
			ev.queued = false
			e.recycle(ev)
			continue
		}
		kept = append(kept, ev)
	}
	// Clear the tail so dropped events are not retained.
	for i := len(kept); i < len(q); i++ {
		q[i] = nil
	}
	e.queue = kept
	e.ncancel = 0
	for i := (len(kept) - 2) / 4; i >= 0; i-- {
		e.siftDown(i)
	}
}

// compactThreshold is the minimum queue length before eager compaction kicks
// in; below it, lazy popping is already cheap.
const compactThreshold = 64

// noteCancelled takes a just-cancelled queued event out of the wheel, or
// records one more corpse in the heap and compacts it once cancelled events
// outnumber live ones.
func (e *Engine) noteCancelled(ev *Event) {
	if ev.near {
		e.cancelNear(ev)
		return
	}
	e.ncancel++
	if n := len(e.queue); n >= compactThreshold && e.ncancel*2 > n {
		e.compact()
	}
}

// recycle returns a poolable event to the free list. The generation bump
// invalidates any stale Timer handle to the old incarnation. Non-poolable
// events (At/After) are left untouched: their handles may be retained, and
// fields like the cancelled flag must stay observable.
func (e *Engine) recycle(ev *Event) {
	if !ev.poolable {
		return
	}
	ev.gen++
	ev.fn = nil
	ev.cfn = nil
	ev.a1 = nil
	ev.a2 = nil
	ev.i = 0
	ev.cancel = false
	e.free = append(e.free, ev)
}

// newEvent takes an event from the free list or allocates one.
func (e *Engine) newEvent(at Time, poolable bool) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	var ev *Event
	if n := len(e.free); poolable && n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.at = at
	ev.seq = e.seq
	ev.poolable = poolable
	e.seq++
	return ev
}

// At schedules fn to run at absolute time at. Scheduling in the past panics:
// it always indicates a logic error in a discrete-event model. The returned
// handle stays valid indefinitely (At events are never pooled), so it may be
// retained and cancelled at any point.
func (e *Engine) At(at Time, fn func()) *Event {
	ev := e.newEvent(at, false)
	ev.fn = fn
	e.push(ev)
	return ev
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// AtCall schedules the pre-bound callback fn(a1, a2, i) at absolute time at.
// The event is pooled and returns no handle, making it allocation-free in
// steady state; use a Timer when the schedule must be cancellable.
func (e *Engine) AtCall(at Time, fn CallFunc, a1, a2 any, i int64) {
	ev := e.newEvent(at, true)
	ev.cfn = fn
	ev.a1 = a1
	ev.a2 = a2
	ev.i = i
	e.push(ev)
}

// AfterCall schedules the pre-bound callback fn(a1, a2, i) to run d after the
// current time. Like AtCall, it is pooled, handle-free and allocation-free.
func (e *Engine) AfterCall(d Time, fn CallFunc, a1, a2 any, i int64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.AtCall(e.now+d, fn, a1, a2, i)
}

// atTimer schedules a pooled event for a Timer and returns it; the Timer
// remembers (event, generation) so a later Stop only cancels this
// incarnation.
func (e *Engine) atTimer(at Time, t *Timer) *Event {
	ev := e.newEvent(at, true)
	ev.cfn = timerFire
	ev.a1 = t
	e.push(ev)
	return ev
}

// Cancel marks ev as cancelled: its callback will not run. A cancelled event
// leaves the wheel at once and stays in the heap as a corpse until it is
// popped or compacted away. Cancelling an already-fired event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.cancel {
		return
	}
	ev.cancel = true
	if ev.queued {
		e.noteCancelled(ev)
	}
}

// cancelGen cancels ev only if it is still the incarnation with generation
// gen. Stale Timer handles (the event fired and was recycled) are no-ops.
func (e *Engine) cancelGen(ev *Event, gen uint32) {
	if ev == nil || !ev.queued || ev.gen != gen || ev.cancel {
		return
	}
	ev.cancel = true
	e.noteCancelled(ev)
}

// Halt stops the run loop after the currently executing event returns.
func (e *Engine) Halt() { e.halted = true }

// popNext removes and returns the earliest live event if it is due at or
// before limit, nil otherwise. This is the one place the two tiers meet: the
// smaller of the wheel's and the heap's minimum under (at, seq) is the global
// minimum. Cancelled events (only the heap keeps them) are discarded as they
// reach its head, so runs with many dead timers stay linear.
func (e *Engine) popNext(limit Time) *Event {
	for {
		var ev *Event
		if len(e.queue) > 0 {
			ev = e.queue[0]
		}
		s := e.nearSlot()
		if s >= 0 && (ev == nil || eventLess(e.wheel[s].head, ev)) {
			ev = e.wheel[s].head
		} else {
			s = -1
		}
		if ev == nil || (ev.at > limit && !ev.cancel) {
			return nil
		}
		if engineDebug {
			e.checkPop(ev, s)
		}
		if s >= 0 {
			e.removeNear(s, nil, ev)
		} else {
			e.popMin()
		}
		if !ev.cancel {
			return ev
		}
		e.ncancel--
		e.recycle(ev)
	}
}

// step fires the earliest live event if it is due at or before limit and
// reports whether it did. Poolable events are recycled before the callback
// runs, so a callback can immediately reuse the object for its own
// rescheduling.
func (e *Engine) step(limit Time) bool {
	ev := e.popNext(limit)
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.fired++
	if ev.cfn != nil {
		cfn, a1, a2, i := ev.cfn, ev.a1, ev.a2, ev.i
		e.recycle(ev)
		cfn(a1, a2, i)
	} else {
		fn := ev.fn
		e.recycle(ev)
		fn()
	}
	return true
}

const maxTime = Time(1<<63 - 1)

// Step executes the next pending event, advancing the clock to its deadline.
// It reports whether an event was executed.
func (e *Engine) Step() bool { return e.step(maxTime) }

// Run executes events until the queue drains or Halt is called.
func (e *Engine) Run() {
	e.halted = false
	for !e.halted && e.step(maxTime) {
	}
}

// RunUntil executes events with deadlines at or before end, then advances the
// clock to exactly end. Events scheduled beyond end remain queued. After a
// Halt the clock stays at the last fired event: events at or before end may
// still be queued, and the clock never passes a queued event.
func (e *Engine) RunUntil(end Time) {
	e.halted = false
	for !e.halted && e.step(end) {
	}
	if !e.halted && e.now < end {
		e.now = end
	}
}

// RunFor executes events for a span d of virtual time from the current clock.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
