package switchsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestSteadyShareMatchesPaperFormula(t *testing.T) {
	// Paper §2.1: alpha=1 -> single queue B/2, two queues B/3 each.
	cases := []struct {
		alpha float64
		s     int
		want  float64
	}{
		{1, 1, 1.0 / 2},
		{1, 2, 1.0 / 3},
		{2, 1, 2.0 / 3},
		{2, 2, 2.0 / 5},
		{0.25, 1, 0.2},
	}
	for _, c := range cases {
		if got := SteadyShare(c.alpha, c.s); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("SteadyShare(%v, %d) = %v, want %v", c.alpha, c.s, got, c.want)
		}
	}
}

func TestSteadyShareMonotonicity(t *testing.T) {
	// More contention -> smaller share; larger alpha -> larger share.
	f := func(alphaRaw uint8, sRaw uint8) bool {
		alpha := 0.25 + float64(alphaRaw%16)*0.25
		s := int(sRaw%20) + 1
		return SteadyShare(alpha, s+1) < SteadyShare(alpha, s) &&
			SteadyShare(alpha+0.25, s) > SteadyShare(alpha, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDTAdmitRelease(t *testing.T) {
	d := &DT{Alpha: 1, Cap: 1000}
	if d.Threshold() != 1000 {
		t.Errorf("empty pool threshold = %d", d.Threshold())
	}
	if !d.Admit(0, 400) {
		t.Fatal("admit into empty pool failed")
	}
	// Pool used 400 -> threshold 600; a queue already holding 400 may add
	// only 200 more.
	if d.Admit(400, 300) {
		t.Error("admit above DT threshold succeeded")
	}
	if !d.Admit(400, 200) {
		t.Error("admit at DT threshold failed")
	}
	d.Release(600)
	if d.Used != 0 {
		t.Errorf("Used = %d after release", d.Used)
	}
}

func TestDTNeverOverflowsPool(t *testing.T) {
	f := func(ops []uint16) bool {
		d := &DT{Alpha: 2, Cap: 10000}
		queueShared := 0
		for _, op := range ops {
			size := int(op%3000) + 1
			if d.Admit(queueShared, size) {
				queueShared += size
			}
			if d.Used > d.Cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func newTestSwitch(t *testing.T, ports int) (*sim.Engine, *Switch) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig(ports)
	sw := New(eng, cfg)
	return eng, sw
}

func dataSeg(size int, port uint16) *netsim.Segment {
	return &netsim.Segment{
		Flow:  netsim.FlowKey{Src: 100, Dst: 1, SrcPort: port, DstPort: 80},
		Size:  size,
		Flags: netsim.FlagECT,
	}
}

func TestSwitchDeliversInFIFOOrder(t *testing.T) {
	eng, sw := newTestSwitch(t, 4)
	var got []int64
	sw.ConnectPort(0, func(s *netsim.Segment) { got = append(got, s.Seq) })
	for i := int64(0); i < 5; i++ {
		seg := dataSeg(1000, 1)
		seg.Seq = i
		sw.ForwardFromFabric(0, seg)
	}
	eng.Run()
	if len(got) != 5 {
		t.Fatalf("delivered %d of 5", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestSwitchDrainRate(t *testing.T) {
	eng, sw := newTestSwitch(t, 4)
	var last sim.Time
	n := 0
	sw.ConnectPort(0, func(*netsim.Segment) { last = eng.Now(); n++ })
	// 10 segments x 12500 bytes = 125000 bytes = 1,000,000 bits at
	// 12.5 Gbps = 80 µs serialization total.
	for i := 0; i < 10; i++ {
		sw.ForwardFromFabric(0, dataSeg(12500, 1))
	}
	eng.Run()
	// Delivery happens at transmission completion (propagation is folded
	// into the drain event).
	want := 80 * sim.Microsecond
	if n != 10 || last != want {
		t.Errorf("n=%d last=%v, want 10 segments finishing at %v", n, last, want)
	}
}

func TestSwitchBufferAccountingReturnsToZero(t *testing.T) {
	eng, sw := newTestSwitch(t, 8)
	for p := 0; p < 8; p++ {
		sw.ConnectPort(p, func(*netsim.Segment) {})
	}
	rng := sim.NewRNG(3)
	for i := 0; i < 2000; i++ {
		port := rng.Intn(8)
		sw.ForwardFromFabric(port, dataSeg(rng.Intn(9000)+66, uint16(port)))
	}
	eng.Run()
	for p := 0; p < 8; p++ {
		if sw.QueueBytes(p) != 0 {
			t.Errorf("port %d occupancy %d after drain", p, sw.QueueBytes(p))
		}
	}
	for q := 0; q < sw.Config().Quadrants; q++ {
		if sw.SharedUsed(q) != 0 {
			t.Errorf("quadrant %d shared pool %d after drain", q, sw.SharedUsed(q))
		}
	}
}

func TestSwitchDropsWhenQueueExceedsDT(t *testing.T) {
	eng, sw := newTestSwitch(t, 4)
	sw.ConnectPort(0, func(*netsim.Segment) {})
	// A single queue may hold dedicated + half the shared pool (alpha=1,
	// lone queue). Stuff far more than that instantaneously.
	target := sw.SharedCap() // about 3.6 MB; limit should be ~half that
	sent := 0
	for sent < 2*target {
		sw.ForwardFromFabric(0, dataSeg(9066, 1))
		sent += 9066
	}
	st := sw.QueueStats(0)
	if st.DiscardSegments == 0 {
		t.Fatal("no discards despite 2x overload of a lone queue")
	}
	// Peak occupancy should be near dedicated + alpha/(1+alpha) * shared.
	wantPeak := sw.Config().DedicatedPerQueue + sw.SharedCap()/2
	if st.PeakBytes > wantPeak+9066 {
		t.Errorf("peak %d exceeds DT bound %d", st.PeakBytes, wantPeak)
	}
	if st.PeakBytes < wantPeak/2 {
		t.Errorf("peak %d suspiciously far below DT bound %d", st.PeakBytes, wantPeak)
	}
	eng.Run()
}

func TestSwitchContentionShrinksPerQueueShare(t *testing.T) {
	// The core DT behaviour the paper studies: with S queues saturating
	// simultaneously, each gets about shared/(1+S).
	for _, s := range []int{1, 2, 4} {
		eng, sw := newTestSwitch(t, 4)
		for p := 0; p < 4; p++ {
			sw.ConnectPort(p, func(*netsim.Segment) {})
		}
		// Interleave enqueues across s ports so they grow together.
		total := 0
		for total < 2*sw.SharedCap() {
			for p := 0; p < s; p++ {
				sw.ForwardFromFabric(p, dataSeg(9066, uint16(p)))
			}
			total += 9066 * s
		}
		// NOTE: ports 0..3 map to distinct quadrants (port % 4), so each
		// queue has its own pool here and sees the lone-queue share. To test
		// same-pool contention, use ports in the same quadrant.
		eng.Run()
		_ = s
	}

	// Same-quadrant contention: ports 0 and 4 share quadrant 0 on an
	// 8-port switch.
	eng, sw := newTestSwitch(t, 8)
	for p := 0; p < 8; p++ {
		sw.ConnectPort(p, func(*netsim.Segment) {})
	}
	total := 0
	for total < 3*sw.SharedCap() {
		sw.ForwardFromFabric(0, dataSeg(9066, 0))
		sw.ForwardFromFabric(4, dataSeg(9066, 4))
		total += 2 * 9066
	}
	peak0 := sw.QueueStats(0).PeakBytes
	peak4 := sw.QueueStats(4).PeakBytes
	// Two contending queues: each near dedicated + shared/3.
	want := sw.Config().DedicatedPerQueue + sw.SharedCap()/3
	for _, peak := range []int{peak0, peak4} {
		if peak > want+2*9066 {
			t.Errorf("contended peak %d exceeds two-queue DT bound %d", peak, want)
		}
	}
	eng.Run()
}

func TestSwitchECNMarking(t *testing.T) {
	eng, sw := newTestSwitch(t, 4)
	var marked, unmarked int
	sw.ConnectPort(0, func(s *netsim.Segment) {
		if s.Is(netsim.FlagCE) {
			marked++
		} else {
			unmarked++
		}
	})
	// Fill past the 120 KB ECN threshold.
	for sent := 0; sent < 400<<10; sent += 9066 {
		sw.ForwardFromFabric(0, dataSeg(9066, 1))
	}
	eng.Run()
	if marked == 0 {
		t.Error("no CE marks despite exceeding ECN threshold")
	}
	if unmarked == 0 {
		t.Error("segments below threshold should be unmarked")
	}
	st := sw.QueueStats(0)
	if st.ECNMarkedSegs != int64(marked) {
		t.Errorf("stats ECNMarkedSegs=%d, delivered marked=%d", st.ECNMarkedSegs, marked)
	}
}

func TestSwitchECNOffNeverMarks(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(4)
	cfg.ECNThreshold = ECNOff
	sw := New(eng, cfg)
	var ceSeen bool
	sw.ConnectPort(0, func(s *netsim.Segment) {
		if s.Is(netsim.FlagCE) {
			ceSeen = true
		}
	})
	// Push ECT traffic far past the default 120 KB threshold — deep enough
	// that DT starts dropping, proving admission still works with marking off.
	for sent := 0; sent < 4<<20; sent += 9066 {
		sw.ForwardFromFabric(0, dataSeg(9066, 1))
	}
	eng.Run()
	if ceSeen {
		t.Error("CE mark delivered with ECN disabled")
	}
	st := sw.QueueStats(0)
	if st.ECNMarkedSegs != 0 || st.ECNMarkedBytes != 0 {
		t.Errorf("marking counters moved with ECN disabled: %+v", st)
	}
	if st.DiscardSegments == 0 {
		t.Error("expected DT discards; overload did not exercise admission")
	}
	if st.DequeuedBytes == 0 {
		t.Error("no traffic traversed the queue")
	}
}

func TestSwitchNonECTNeverMarked(t *testing.T) {
	eng, sw := newTestSwitch(t, 4)
	var ceSeen bool
	sw.ConnectPort(0, func(s *netsim.Segment) {
		if s.Is(netsim.FlagCE) {
			ceSeen = true
		}
	})
	for sent := 0; sent < 400<<10; sent += 9066 {
		seg := dataSeg(9066, 1)
		seg.Flags &^= netsim.FlagECT
		sw.ForwardFromFabric(0, seg)
	}
	eng.Run()
	if ceSeen {
		t.Error("non-ECT segment got a CE mark")
	}
}

func TestSwitchMulticastReplication(t *testing.T) {
	eng, sw := newTestSwitch(t, 8)
	counts := make([]int, 8)
	for p := 0; p < 8; p++ {
		p := p
		sw.ConnectPort(p, func(*netsim.Segment) { counts[p]++ })
	}
	for _, p := range []int{1, 3, 5} {
		sw.Subscribe(7, p)
	}
	seg := &netsim.Segment{Size: 1000, Flags: netsim.FlagMulticast, Group: 7}
	sw.ForwardFromFabric(0, seg)
	eng.Run()
	for p, c := range counts {
		want := 0
		if p == 1 || p == 3 || p == 5 {
			want = 1
		}
		if c != want {
			t.Errorf("port %d received %d copies, want %d", p, c, want)
		}
	}
}

func TestPollerDeltas(t *testing.T) {
	eng, sw := newTestSwitch(t, 2)
	sw.ConnectPort(0, func(*netsim.Segment) {})
	sw.ConnectPort(1, func(*netsim.Segment) {})
	poller := NewPoller(sw, 100*sim.Millisecond)
	poller.Start()

	// 1000 bytes every ms on port 0 for 250 ms.
	var send func()
	sent := 0
	send = func() {
		if sent >= 250 {
			return
		}
		sw.ForwardFromFabric(0, dataSeg(1000, 1))
		sent++
		eng.After(sim.Millisecond, send)
	}
	eng.After(0, send)
	eng.RunUntil(260 * sim.Millisecond)
	poller.Stop()

	var port0 []CounterSample
	for _, s := range poller.Samples {
		if s.Port == 0 {
			port0 = append(port0, s)
		}
	}
	if len(port0) != 2 {
		t.Fatalf("got %d samples for port 0, want 2", len(port0))
	}
	if port0[0].IngressBytes != 100_000 {
		t.Errorf("first interval bytes = %d, want 100000", port0[0].IngressBytes)
	}
	if port0[1].IngressBytes != 100_000 {
		t.Errorf("second interval bytes = %d, want 100000", port0[1].IngressBytes)
	}
}

func TestNewPanicsWithoutPorts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with 0 ports did not panic")
		}
	}()
	New(sim.NewEngine(), Config{})
}
