package sim

import (
	"fmt"
	"sort"
	"testing"
	"time"
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

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.At(10, func() { ran = true })
	e.Cancel(ev)
	e.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	if !ev.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
}

func TestEngineCancelNil(t *testing.T) {
	e := NewEngine()
	e.Cancel(nil) // must not panic
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

func TestEngineHalt(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, func() { count++; e.Halt() })
	e.At(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Errorf("count = %d, want 1 (halted)", count)
	}
	e.Run()
	if count != 2 {
		t.Errorf("count = %d after resume, want 2", count)
	}
}

// TestRunUntilHaltKeepsClock: a RunUntil cut short by Halt must not advance
// the clock to end, or the still-queued event at t=2 would later fire with
// the clock running backwards (and, in the wheel, outside its window).
func TestRunUntilHaltKeepsClock(t *testing.T) {
	e := NewEngine()
	var at2 Time = -1
	e.At(1, e.Halt)
	e.At(2, func() { at2 = e.Now() })
	e.RunUntil(10)
	if e.Now() != 1 || e.Pending() != 1 {
		t.Fatalf("after halted RunUntil(10): Now()=%v Pending()=%d, want 1 and 1", e.Now(), e.Pending())
	}
	e.RunUntil(10)
	if at2 != 2 || e.Now() != 10 || e.Pending() != 0 {
		t.Fatalf("after resume: event saw Now()=%v, Now()=%v Pending()=%d, want 2, 10, 0", at2, e.Now(), e.Pending())
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
	Halt()
	Step() bool
	RunUntil(Time)
	at(at Time, fn func()) (cancel func()) // At: retained handle
	call(d Time, fn func())                // AfterCall: pooled, no handle
	timer(fn func()) orderTimer
}

type orderTimer interface {
	Reset(Time)
	Stop()
}

type engineQueue struct{ *Engine }

func callThunk(a1, _ any, _ int64) { a1.(func())() }

func (q engineQueue) at(at Time, fn func()) func() {
	ev := q.At(at, fn)
	return func() { q.Cancel(ev) }
}
func (q engineQueue) call(d Time, fn func())     { q.AfterCall(d, callThunk, fn, nil, 0) }
func (q engineQueue) timer(fn func()) orderTimer { return q.NewTimer(fn) }

// refQueue is the reference: one slice kept stable-sorted by deadline (so
// ties stay in scheduling order) with cancelled events removed on the spot.
type refQueue struct {
	now    Time
	q      []*refEvent
	fired  uint64
	halted bool
}

type refEvent struct {
	at Time
	fn func()
}

func (r *refQueue) Now() Time     { return r.now }
func (r *refQueue) Fired() uint64 { return r.fired }
func (r *refQueue) Pending() int  { return len(r.q) }
func (r *refQueue) Halt()         { r.halted = true }

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
	r.halted = false
	for !r.halted && len(r.q) > 0 && r.q[0].at <= end {
		r.Step()
	}
	if !r.halted && r.now < end {
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

// orderDelays straddle every boundary of the two-tier queue: zero, the 64 ns
// slot edge, the 32 µs horizon, the 32.768 µs wheel wrap, and the far
// timescales (delayed ACK, RTO) that live in the heap.
var orderDelays = []Time{
	0, 0, 1, 40, 63, 64, 65, 127, 128, 129, 960,
	10 * Microsecond, 20 * Microsecond,
	nearHorizon - 1, nearHorizon, nearHorizon + 1,
	wheelSpan - 65, wheelSpan - 64, wheelSpan - 1, wheelSpan, wheelSpan + 1, wheelSpan + 64, 2 * wheelSpan,
	400 * Microsecond, 4 * Millisecond,
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
		switch rng.Intn(4) {
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
		}
		return orderDelays[rng.Intn(len(orderDelays))]
	}

	var timers []orderTimer
	var op func()
	fire := func(id int) func() {
		return func() {
			trace = append(trace, fmt.Sprintf("%d #%d", q.Now(), id))
			for n := rng.Intn(3); n > 0; n-- {
				op()
			}
			if rng.Intn(40) == 0 {
				q.Halt()
			}
		}
	}
	for i := 0; i < 6; i++ {
		i := i
		var tm orderTimer
		tm = q.timer(func() {
			trace = append(trace, fmt.Sprintf("%d timer%d", q.Now(), i))
			if rng.Bool(0.5) { // rearm from inside the callback
				tm.Reset(delay())
			}
		})
		timers = append(timers, tm)
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
			timers[rng.Intn(len(timers))].Reset(d)
		case k < 9 && !cancelHeavy:
			timers[rng.Intn(len(timers))].Stop()
		default:
			// Near or far, pending or long since fired.
			for n := 1 + 8*rng.Intn(2); n > 0 && len(cancels) > 0; n-- {
				cancels[rng.Intn(len(cancels))]()
			}
		}
	}
	checkpoint := func() {
		trace = append(trace, fmt.Sprintf("now=%d fired=%d pending=%d", q.Now(), q.Fired(), q.Pending()))
	}

	// A far-tier population large enough for cancel-compaction to trigger.
	for i := 0; i < 100; i++ {
		nextID++
		d := wheelSpan + Time(rng.Intn(1000))
		deadlines = append(deadlines, d)
		cancels = append(cancels, q.at(d, fire(nextID)))
	}
	for q.Pending() > 0 || budget > 0 {
		for n := rng.Intn(8); n > 0; n-- {
			op()
		}
		checkpoint()
		if rng.Intn(4) == 0 {
			q.Step()
		} else {
			// Often stops mid-window, with wheel events left beyond end.
			q.RunUntil(q.Now() + delay())
		}
		checkpoint()
	}
	return trace
}

// Property: the two-tier engine fires exactly the (at, seq) order of a single
// sorted list, whatever mix of near and far events, ties, cancels, timer
// rearms, nested scheduling and partial runs it is given.
func TestEngineOrderProperty(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		got := orderProgram(engineQueue{NewEngine()}, seed)
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

// rackMix mirrors the queue a rack-hour keeps (census in the package
// comment): ~64 RTO/delayed-ACK timers and ~72 arrival / clock-daemon events
// resident at 400 µs–4 ms, the corpses the timers' rearms leave behind, and a
// closed loop of 17 in-flight packet events at 40 ns–20 µs that do nearly all
// the firing.
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
	m.eng.RunFor(20 * Millisecond) // reach the steady corpse population
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.eng.Step()
	}
}
