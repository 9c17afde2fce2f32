//go:build simdebug

package sim

import "fmt"

// engineDebug enables the three-tier queue invariants, and the heap index
// check in removeHeap. Build with `-tags simdebug` (done by `make check`) to
// turn them into panics; in release builds the guarded branches compile away.
const engineDebug = true

// checkPop panics unless ev, about to be popped from wheel slot s (or from the
// heap when s < 0), is no later than the minimum of every tier and its slot
// chain is sorted by (at, seq). Sortedness is checked one link per pop — every
// link is looked at when its first event leaves — so a chain of n same-instant
// events costs n checks, not n².
func (e *Engine) checkPop(ev *event, s int) {
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
	e.checkFar(ev)
	if s < 0 {
		return
	}
	if ev.next != nil && !eventLess(ev, ev.next) {
		panic(fmt.Sprintf("sim: wheel slot %d out of order: %v/%d before %v/%d", s, ev.at, ev.seq, ev.next.at, ev.next.seq))
	}
	if (ev.next == nil) != (ev == e.wheel[s].tail) {
		panic(fmt.Sprintf("sim: wheel slot %d tail does not end its chain", s))
	}
}

// checkFar panics unless the cached first far window is the first occupied
// one from farNext, lies in [farNext, farNext+farWindows), and holds only
// correctly linked events of its own window, none earlier than ev.
// Only the first window is walked: a walk over all of them per pop would make
// the golden rack-hours crawl.
func (e *Engine) checkFar(ev *event) {
	if e.nfar == 0 {
		return
	}
	w, s := e.farFirst, int(e.farFirst)&(farWindows-1)
	if uint64(w-e.farNext) >= farWindows || e.farFrom(e.farNext) != w || e.far[s] == nil {
		panic(fmt.Sprintf("sim: cached first far window %d is not the first occupied one from %d", w, e.farNext))
	}
	var prev *event
	for x := e.far[s]; x != nil; prev, x = x, x.next {
		if windowOf(x.at) != w || !x.far || x.prev != prev {
			panic(fmt.Sprintf("sim: far event %v/%d misfiled in window %d", x.at, x.seq, w))
		}
		if eventLess(x, ev) {
			panic(fmt.Sprintf("sim: popping event %v/%d past %v/%d in far window %d", ev.at, ev.seq, x.at, x.seq, w))
		}
	}
}
