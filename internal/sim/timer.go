package sim

// Timer is a reusable, allocation-free timer handle in the style of
// time.AfterFunc: one callback bound at construction, rearmed with Reset and
// disarmed with Stop. It is the one schedule that can be cancelled: a Stop
// takes its pooled event out of whichever tier holds it at once.
//
// Safety: the Timer records the scheduled event's generation. If the event
// has already fired and been recycled for an unrelated schedule, Stop
// becomes a no-op instead of cancelling the new owner.
type Timer struct {
	eng *Engine
	fn  func()
	ev  *event // pending firing, nil while disarmed
	gen uint32 // generation of ev when it was scheduled
}

// NewTimer returns a disarmed timer that runs fn on the engine clock each
// time an armed deadline is reached.
func (e *Engine) NewTimer(fn func()) *Timer {
	return &Timer{eng: e, fn: fn}
}

// timerFire is the pooled-event trampoline: disarm, then run the callback
// (which may immediately Reset).
func timerFire(a1, _ any, _ int64) {
	t := a1.(*Timer)
	t.ev = nil
	t.fn()
}

// Reset (re)arms the timer to fire d from now, replacing any pending firing.
// A firing pending in a far window that moves to another far deadline is
// re-timed in place, with the same (at, seq) a Stop and a fresh schedule
// would give it.
func (t *Timer) Reset(d Time) {
	at := t.eng.now + d
	if t.ev != nil && t.ev.gen == t.gen && t.eng.retime(t.ev, at) {
		return
	}
	t.Stop()
	t.ev = t.eng.schedule(at, timerFire, t, nil, 0)
	t.gen = t.ev.gen
}

// Stop disarms the timer. Stopping a disarmed timer is a no-op.
func (t *Timer) Stop() {
	if t.ev != nil {
		t.eng.cancelGen(t.ev, t.gen)
		t.ev = nil
	}
}

// Armed reports whether a firing is pending.
func (t *Timer) Armed() bool { return t.ev != nil }
