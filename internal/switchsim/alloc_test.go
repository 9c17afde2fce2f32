package switchsim

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestEnqueueDequeueZeroAlloc asserts the switch's steady-state forwarding
// path — admission, FIFO push, drain event, dequeue accounting, delivery —
// performs zero heap allocations per segment once the pool and rings warm up,
// under every sharing policy, admission test and pool release included.
func TestEnqueueDequeueZeroAlloc(t *testing.T) {
	for _, pol := range KnownPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			eng := sim.NewEngine()
			cfg := DefaultConfig(4)
			cfg.Policy = pol
			sw := New(eng, cfg)
			pool := sw.Pool()
			sw.ConnectPort(0, func(seg *netsim.Segment) { pool.Put(seg) })

			send := func() {
				seg := pool.Get()
				seg.Flow = netsim.FlowKey{Src: 500, Dst: 0, SrcPort: 9, DstPort: 80}
				seg.Size = 9000
				seg.Flags = netsim.FlagECT
				sw.ForwardFromFabric(0, seg)
				eng.RunFor(100 * sim.Microsecond)
			}
			// Warm the pool free list, the egress FIFO ring and the event queue.
			for i := 0; i < 64; i++ {
				send()
			}
			allocs := testing.AllocsPerRun(1000, send)
			if allocs != 0 {
				t.Fatalf("enqueue/dequeue allocates %.2f objects per segment, want 0", allocs)
			}

			st := sw.QueueStats(0)
			if st.EnqueuedSegments == 0 || st.DequeuedBytes == 0 {
				t.Fatal("traffic did not traverse the queue")
			}
			if sw.TotalDiscards != 0 {
				t.Fatalf("unexpected discards: %d", sw.TotalDiscards)
			}
		})
	}
}
