package sim

import (
	"fmt"
	"sort"
	"testing"
	"time"
	"unsafe"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("events at the same instant ran out of scheduling order: %v", order)
		}
	}
}

func TestEngineAfterNesting(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var tick func()
	tick = func() {
		ticks = append(ticks, e.Now())
		if len(ticks) < 5 {
			e.After(Millisecond, tick)
		}
	}
	e.After(0, tick)
	e.Run()
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, at := range ticks {
		if at != Time(i)*Millisecond {
			t.Errorf("tick %d at %v, want %v", i, at, Time(i)*Millisecond)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 5 and 10 only", fired)
	}
	if e.Now() != 12 {
		t.Errorf("Now() = %v, want 12 after RunUntil(12)", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Errorf("fired %v after second RunUntil, want all 4", fired)
	}
}

func TestEngineRunFor(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(5, func() { count++ })
	e.At(15, func() { count++ })
	e.RunFor(10)
	if count != 1 || e.Now() != 10 {
		t.Errorf("count=%d now=%v, want 1 and 10", count, e.Now())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative After delay did not panic")
		}
	}()
	NewEngine().After(-1, func() {})
}

func TestEngineFiredCount(t *testing.T) {
	e := NewEngine()
	for i := Time(0); i < 100; i++ {
		e.At(i, func() {})
	}
	e.Run()
	if e.Fired() != 100 {
		t.Errorf("Fired() = %d, want 100", e.Fired())
	}
}

// TestEventSize pins the event at 96 B, the top of its size class: one more
// word moves every pooled event into the 112-byte class.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 96 {
		t.Errorf("event is %d bytes, want 96", got)
	}
}

func TestTimeConversions(t *testing.T) {
	if Second.Duration() != time.Second {
		t.Errorf("Second.Duration() = %v", Second.Duration())
	}
	if FromDuration(3*time.Millisecond) != 3*Millisecond {
		t.Errorf("FromDuration mismatch")
	}
	if got := (2500 * Microsecond).Milliseconds(); got != 2.5 {
		t.Errorf("Milliseconds() = %v, want 2.5", got)
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", got)
	}
}

// ---- order equivalence against a reference queue ----

// orderQueue is what the random program below needs from an event queue; the
// engine and the reference both provide it.
type orderQueue interface {
	Now() Time
	Fired() uint64
	Pending() int
	Step() bool
	RunUntil(Time)
	at(at Time, fn func()) (cancel func()) // a one-shot Timer
	call(d Time, fn func())                // After: no handle
	timer(fn func()) orderTimer
	audit() // checks internal structure at a checkpoint
}

type orderTimer interface {
	Reset(Time)
	Stop()
}

type engineQueue struct {
	*Engine
	t *testing.T
}

func (q engineQueue) at(at Time, fn func()) func() {
	tm := q.NewTimer(fn)
	tm.Reset(at - q.now)
	q.placed(tm.ev)
	return tm.Stop
}
func (q engineQueue) call(d Time, fn func()) { q.After(d, fn) }
func (q engineQueue) timer(fn func()) orderTimer {
	return engineTimer{q.NewTimer(fn), q}
}

// placed fails the program unless ev, just scheduled, waits in the far tier
// when its window is 2 to farWindows-1 past the clock's. farNext follows the
// clock to at most one window past it, so the far tier always has room there;
// an event in the heap instead would fire in order but defeat the tier.
func (q engineQueue) placed(ev *event) {
	if d := windowOf(ev.at) - windowOf(q.now); d >= 2 && d < farWindows && !ev.far {
		q.t.Fatalf("event at %v scheduled at %v waits outside the far tier (farNext %d)", ev.at, q.now, q.farNext)
	}
}

// audit fails the program unless every far window's occupancy bit says
// whether its list is empty. A stale bit reorders nothing the trace could
// show; once its window comes first, the run loop would stall flushing it.
func (q engineQueue) audit() {
	for s, head := range q.far {
		if set := q.farOcc[s>>6]>>(s&63)&1 == 1; set != (head != nil) {
			q.t.Fatalf("far window slot %d: occupancy bit %v, list empty %v", s, set, head == nil)
		}
	}
}

type engineTimer struct {
	*Timer
	q engineQueue
}

func (t engineTimer) Reset(d Time) {
	t.Timer.Reset(d)
	t.q.placed(t.ev)
}

// refQueue is the reference: one slice kept stable-sorted by deadline (so
// ties stay in scheduling order) with cancelled events removed on the spot.
type refQueue struct {
	now   Time
	q     []*refEvent
	fired uint64
}

type refEvent struct {
	at Time
	fn func()
}

func (r *refQueue) Now() Time     { return r.now }
func (r *refQueue) Fired() uint64 { return r.fired }
func (r *refQueue) Pending() int  { return len(r.q) }
func (r *refQueue) audit()        {}

func (r *refQueue) at(at Time, fn func()) func() {
	ev := &refEvent{at, fn}
	r.q = append(r.q, ev)
	sort.SliceStable(r.q, func(i, j int) bool { return r.q[i].at < r.q[j].at })
	return func() {
		for i, x := range r.q {
			if x == ev {
				r.q = append(r.q[:i], r.q[i+1:]...)
				return
			}
		}
	}
}
func (r *refQueue) call(d Time, fn func()) { r.at(r.now+d, fn) }

func (r *refQueue) Step() bool {
	if len(r.q) == 0 {
		return false
	}
	ev := r.q[0]
	r.q = r.q[1:]
	r.now = ev.at
	r.fired++
	ev.fn()
	return true
}

func (r *refQueue) RunUntil(end Time) {
	for len(r.q) > 0 && r.q[0].at <= end {
		r.Step()
	}
	if r.now < end {
		r.now = end
	}
}

type refTimer struct {
	r      *refQueue
	fn     func()
	cancel func()
}

func (r *refQueue) timer(fn func()) orderTimer { return &refTimer{r: r, fn: fn} }

func (t *refTimer) Reset(d Time) {
	t.Stop()
	t.cancel = t.r.at(t.r.now+d, func() { t.cancel = nil; t.fn() })
}

func (t *refTimer) Stop() {
	if t.cancel != nil {
		t.cancel()
		t.cancel = nil
	}
}

// orderDelays straddle every boundary of the three-tier queue: zero, the
// 64 ns slot edge, the 32 µs horizon, the 32.768 µs wheel wrap and far
// window, k windows ± 1 ns, the far timescales (delayed ACK, RTO), the
// 16.78 ms far span ± one window, and 20 ms and the 200 ms RTO cap beyond it.
var orderDelays = []Time{
	0, 0, 1, 40, 63, 64, 65, 127, 128, 129, 960,
	10 * Microsecond, 20 * Microsecond,
	nearHorizon - 1, nearHorizon, nearHorizon + 1,
	wheelSpan - 65, wheelSpan - 64, wheelSpan - 1, wheelSpan, wheelSpan + 1, wheelSpan + 64,
	2*wheelSpan - 1, 2 * wheelSpan, 2*wheelSpan + 1, 13*wheelSpan - 1, 13 * wheelSpan, 13*wheelSpan + 1,
	400 * Microsecond, 4 * Millisecond, 10 * Millisecond,
	farSpan - wheelSpan, farSpan - 1, farSpan, farSpan + 1, farSpan + wheelSpan,
	20 * Millisecond, 200 * Millisecond,
}

// orderProgram drives q with a random program fixed by seed and returns the
// trace of what it observed: one line per callback (time, id) and one per
// checkpoint (clock, Fired, Pending). The program draws from its generator
// inside callbacks too, so two queues stay on the same program only as long
// as they fire in the same order.
func orderProgram(q orderQueue, seed uint64) []string {
	rng := NewRNG(seed)
	var trace []string
	var cancels []func()
	var deadlines []Time // of events scheduled so far: targets for same-instant ties
	budget := 300 + rng.Intn(300)
	cancelHeavy := rng.Bool(0.3)
	nextID := 0

	delay := func() Time {
		switch rng.Intn(5) {
		case 0:
			return Time(rng.Intn(200))
		case 1:
			return Time(rng.Int63n(int64(2 * wheelSpan)))
		case 2:
			if n := len(deadlines); n > 0 {
				if at := deadlines[rng.Intn(n)]; at >= q.Now() {
					return at - q.Now()
				}
			}
		case 3:
			// A far window's first instant ± 1 ns, k windows past the clock's.
			k := []int64{1, 2, 3, farWindows - 1, farWindows, farWindows + 1}[rng.Intn(6)]
			return Time(windowOf(q.Now())+k)<<farShift + Time(rng.Intn(3)-1) - q.Now()
		}
		return orderDelays[rng.Intn(len(orderDelays))]
	}

	// Timers remember their deadline, so a rearm can move it within its far
	// window, one window either way, into the wheel, or out of it.
	var timers []orderTimer
	var timerAt []Time
	var armed []bool
	reset := func(i int, d Time) {
		timers[i].Reset(d)
		timerAt[i], armed[i] = q.Now()+d, true
	}
	rearm := func(i int) Time {
		now := q.Now()
		if !armed[i] || rng.Bool(0.5) {
			return delay()
		}
		at := timerAt[i]
		switch rng.Intn(4) {
		case 0:
			at += Time(rng.Intn(129)) - 64
		case 1:
			at += Time(2*rng.Intn(2)-1) * wheelSpan
		case 2:
			at = now + Time(rng.Intn(int(nearHorizon)))
		default:
			at = now + []Time{400 * Microsecond, 4 * Millisecond}[rng.Intn(2)]
		}
		return max(at, now) - now
	}
	var op func()
	fire := func(id int) func() {
		return func() {
			trace = append(trace, fmt.Sprintf("%d #%d", q.Now(), id))
			for n := rng.Intn(3); n > 0; n-- {
				op()
			}
		}
	}
	for i := 0; i < 6; i++ {
		i := i
		var tm orderTimer
		tm = q.timer(func() {
			trace = append(trace, fmt.Sprintf("%d timer%d", q.Now(), i))
			armed[i] = false
			if rng.Bool(0.5) { // rearm from inside the callback
				reset(i, delay())
			}
		})
		timers = append(timers, tm)
		timerAt = append(timerAt, 0)
		armed = append(armed, false)
	}
	op = func() {
		if budget == 0 {
			return
		}
		budget--
		d := delay()
		nextID++
		switch k := rng.Intn(10); {
		case k < 3:
			deadlines = append(deadlines, q.Now()+d)
			cancels = append(cancels, q.at(q.Now()+d, fire(nextID)))
		case k < 6:
			deadlines = append(deadlines, q.Now()+d)
			q.call(d, fire(nextID))
		case k < 8:
			i := rng.Intn(len(timers))
			reset(i, rearm(i))
		case k < 9 && !cancelHeavy:
			i := rng.Intn(len(timers))
			timers[i].Stop()
			armed[i] = false
		default:
			// Near or far, pending or long since fired.
			for n := 1 + 8*rng.Intn(2); n > 0 && len(cancels) > 0; n-- {
				cancels[rng.Intn(len(cancels))]()
			}
		}
	}
	checkpoint := func() {
		q.audit()
		trace = append(trace, fmt.Sprintf("now=%d fired=%d pending=%d", q.Now(), q.Fired(), q.Pending()))
	}

	// A far-window population, and one beyond the far span in the heap, whose
	// cancels take events from anywhere in it.
	for i := 0; i < 200; i++ {
		nextID++
		d := wheelSpan + Time(rng.Intn(1000))
		if i >= 100 {
			d += farSpan
		}
		deadlines = append(deadlines, d)
		cancels = append(cancels, q.at(d, fire(nextID)))
	}
	for q.Pending() > 0 || budget > 0 {
		for n := rng.Intn(8); n > 0; n-- {
			op()
		}
		checkpoint()
		switch rng.Intn(8) {
		case 0, 1:
			q.Step()
		case 2:
			// An idle gap longer than the far span.
			q.RunUntil(q.Now() + farSpan + Time(rng.Int63n(int64(farSpan))))
		default:
			// Often stops mid-window, with wheel events left beyond end.
			q.RunUntil(q.Now() + delay())
		}
		checkpoint()
	}
	return trace
}

// Property: the three-tier engine fires exactly the (at, seq) order of a
// single sorted list, whatever mix of near, far and beyond-span events, ties,
// cancels, timer rearms (in place within and across far windows, and between
// tiers), nested scheduling, idle gaps and partial runs it is given; and every
// event due 2–511 windows ahead waits in the far tier.
func TestEngineOrderProperty(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		got := orderProgram(engineQueue{NewEngine(), t}, seed)
		want := orderProgram(&refQueue{}, seed)
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				g := "<end of trace>"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("seed %d, trace line %d: engine %q, reference %q", seed, i, g, want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine trace has %d lines, reference %d", seed, len(got), len(want))
		}
	}
}

// TestWheelSameInstantBurst guards the slot's O(1) tail append: 100 k events
// at one instant all land in one slot, and a head-to-tail walk per insert
// would take ~5·10⁹ steps instead of 10⁵.
func TestWheelSameInstantBurst(t *testing.T) {
	const n = 100_000
	e := NewEngine()
	next := 0
	inOrder := func(_, _ any, i int64) {
		if int(i) == next {
			next++
		}
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		e.AfterCall(10*Microsecond, inOrder, nil, nil, int64(i))
	}
	e.Run()
	if next != n || e.Fired() != n {
		t.Fatalf("fired %d events, %d in scheduling order, want %d", e.Fired(), next, n)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("%d same-instant events took %v: slot insert is not O(1)", n, d)
	}
}

// rackMix mirrors the queue a rack-hour keeps (census in DESIGN.md "Event
// queue and pooling"): ~64 RTO/delayed-ACK timers, re-armed far more often
// than they fire, and ~72 arrival / clock-daemon events resident at
// 400 µs–4 ms in the far windows, and a closed loop of 17 in-flight packet
// events at 40 ns–20 µs that do nearly all the firing.
type rackMix struct {
	eng    *Engine
	rng    *RNG
	timers []*Timer
}

var rackHopDelays = []Time{40, 120, 480, 960, 960, 10 * Microsecond, 10 * Microsecond, 20 * Microsecond}

func rackHop(a1, _ any, i int64) {
	m := a1.(*rackMix)
	if i%4 == 0 { // a send or an ACK re-arms its connection's timer
		d := 4 * Millisecond
		if i%8 == 0 {
			d = 400 * Microsecond
		}
		m.timers[m.rng.Intn(len(m.timers))].Reset(d)
	}
	m.eng.AfterCall(rackHopDelays[m.rng.Intn(len(rackHopDelays))], rackHop, m, nil, i+1)
}

func rackArrival(a1, _ any, _ int64) {
	m := a1.(*rackMix)
	m.eng.AfterCall(Millisecond+Time(m.rng.Intn(int(Millisecond))), rackArrival, m, nil, 0)
}

func BenchmarkEngineRackMix(b *testing.B) {
	m := &rackMix{eng: NewEngine(), rng: NewRNG(1)}
	for i := 0; i < 64; i++ {
		m.timers = append(m.timers, m.eng.NewTimer(func() {}))
		m.timers[i].Reset(4 * Millisecond)
	}
	for i := 0; i < 72; i++ {
		rackArrival(m, nil, 0)
	}
	for i := 0; i < 17; i++ {
		rackHop(m, nil, int64(i))
	}
	m.eng.RunFor(20 * Millisecond) // reach the steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.eng.Step()
	}
}
