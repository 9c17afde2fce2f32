package netsim

import "repro/internal/sim"

// groState models receive-side segment coalescing (GRO/LRO). When enabled,
// in-order same-flow data segments arriving back to back are merged into one
// large segment (up to GROMaxBytes) before the ingress hook sees them. Total
// byte counts are unchanged, but all bytes of a merged segment are credited
// to the instant the merge flushes — which is exactly the mechanism behind
// the paper's observation (§4.6) that 100 µs sampling shows apparent rates
// above line speed.
type groState struct {
	host       *Host
	flushAfter sim.Time
	pending    map[FlowKey]*groEntry
}

type groEntry struct {
	seg   *Segment
	timer *sim.Timer
}

// EnableGRO turns on receive coalescing with the given hold time (how long a
// partially filled merge waits for the next segment before flushing). A hold
// time of ~2× the MSS serialization delay is realistic.
func (h *Host) EnableGRO(flushAfter sim.Time) {
	h.gro = &groState{host: h, flushAfter: flushAfter, pending: make(map[FlowKey]*groEntry)}
}

// mergeable reports whether nxt can be appended to cur.
func mergeable(cur, nxt *Segment) bool {
	if cur.Flow != nxt.Flow {
		return false
	}
	// Only plain data segments merge; control flags and the retransmit
	// signal must be visible individually.
	const blocking = FlagSYN | FlagFIN | FlagRetx | FlagMulticast
	if cur.Flags&blocking != 0 || nxt.Flags&blocking != 0 {
		return false
	}
	if nxt.Payload() == 0 || cur.Payload() == 0 {
		return false
	}
	// In-order contiguity.
	if cur.Seq+int64(cur.Payload()) != nxt.Seq {
		return false
	}
	return cur.Size+nxt.Payload() <= GROMaxBytes
}

func (g *groState) offer(seg *Segment) {
	e, ok := g.pending[seg.Flow]
	if ok {
		if mergeable(e.seg, seg) {
			e.seg.Size += seg.Payload()
			e.seg.Ack = seg.Ack
			e.seg.Flags |= seg.Flags & FlagCE // CE propagates into the merge
			// The absorbed segment's path ends here; the merge carries its
			// bytes onward.
			g.host.pool.Put(seg)
			if e.seg.Size >= GROMaxBytes {
				g.flush(seg.Flow)
			}
			return
		}
		// Not mergeable: flush what we hold, then consider the newcomer.
		g.flush(seg.Flow)
	}
	if seg.Payload() == 0 || seg.Flags&(FlagSYN|FlagFIN|FlagRetx|FlagMulticast) != 0 {
		g.host.deliver(seg)
		return
	}
	flow := seg.Flow
	entry := &groEntry{seg: seg, timer: g.host.eng.NewTimer(func() { g.flush(flow) })}
	entry.timer.Reset(g.flushAfter)
	g.pending[flow] = entry
}

func (g *groState) flush(flow FlowKey) {
	e, ok := g.pending[flow]
	if !ok {
		return
	}
	delete(g.pending, flow)
	e.timer.Stop()
	g.host.deliver(e.seg)
}

// dropAll discards everything held by the aggregator without delivering —
// the host crashed, so the merged bytes are lost and the segments recycle.
func (g *groState) dropAll() {
	for flow, e := range g.pending {
		delete(g.pending, flow)
		e.timer.Stop()
		g.host.pool.Put(e.seg)
	}
}
