//go:build simdebug

package sim

import "fmt"

// engineDebug enables the two-tier queue invariants. Build with `-tags
// simdebug` (done by `make check`) to turn them into panics; in release
// builds the guarded branches compile away.
const engineDebug = true

// checkPop panics unless ev, about to be popped from wheel slot s (or from the
// heap when s < 0), is no later than the minimum of both tiers and its slot
// chain is sorted by (at, seq). Sortedness is checked one link per pop — every
// link is looked at when its first event leaves — so a chain of n same-instant
// events costs n checks, not n².
func (e *Engine) checkPop(ev *Event, s int) {
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: popping event at %v with the clock at %v", ev.at, e.now))
	}
	if len(e.queue) > 0 && eventLess(e.queue[0], ev) {
		panic(fmt.Sprintf("sim: popping event %v/%d past the heap minimum %v/%d", ev.at, ev.seq, e.queue[0].at, e.queue[0].seq))
	}
	for i := range e.wheel {
		if h := e.wheel[i].head; h != nil && eventLess(h, ev) {
			panic(fmt.Sprintf("sim: popping event %v/%d past %v/%d at the head of wheel slot %d", ev.at, ev.seq, h.at, h.seq, i))
		}
	}
	if s < 0 {
		return
	}
	if ev.cancel {
		panic(fmt.Sprintf("sim: cancelled event %v/%d still in wheel slot %d", ev.at, ev.seq, s))
	}
	if ev.next != nil && !eventLess(ev, ev.next) {
		panic(fmt.Sprintf("sim: wheel slot %d out of order: %v/%d before %v/%d", s, ev.at, ev.seq, ev.next.at, ev.next.seq))
	}
	if (ev.next == nil) != (ev == e.wheel[s].tail) {
		panic(fmt.Sprintf("sim: wheel slot %d tail does not end its chain", s))
	}
}
