package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/transport"
)

// bareHost returns a host with a perfect clock on a fresh engine, for
// sampler unit tests that inject segments directly.
func bareHost(cores int) (*sim.Engine, *netsim.Host) {
	eng := sim.NewEngine()
	h := netsim.NewHost(eng, netsim.HostConfig{ID: 1, Cores: cores})
	h.SetForwarder(netsim.ForwarderFunc(func(*netsim.Segment) {}))
	return eng, h
}

func seg(src netsim.HostID, port uint16, size int, flags netsim.Flags) *netsim.Segment {
	return &netsim.Segment{
		Flow:  netsim.FlowKey{Src: src, Dst: 1, SrcPort: port, DstPort: 80},
		Size:  size,
		Flags: flags,
	}
}

func TestSamplerBucketPlacement(t *testing.T) {
	eng, h := bareHost(4)
	s := NewSampler(h, Config{Interval: sim.Millisecond, Buckets: 10, CountFlows: true})
	s.Attach()
	s.Enable()

	eng.At(5*sim.Millisecond, func() { h.Inject(seg(7, 1, 100, 0)) })  // starts run, bucket 0
	eng.At(6*sim.Millisecond, func() { h.Inject(seg(7, 1, 200, 0)) })  // bucket 1
	eng.At(14*sim.Millisecond, func() { h.Inject(seg(7, 1, 400, 0)) }) // bucket 9
	eng.Run()

	r := s.Read()
	if !r.Started {
		t.Fatal("run never started")
	}
	in := r.Series(CtrIn)
	if in[0] != 100 || in[1] != 200 || in[9] != 400 {
		t.Errorf("buckets = [0]=%d [1]=%d [9]=%d", in[0], in[1], in[9])
	}
	for i := 2; i < 9; i++ {
		if in[i] != 0 {
			t.Errorf("bucket %d nonzero: %d", i, in[i])
		}
	}
}

func TestSamplerStartsOnFirstPacket(t *testing.T) {
	eng, h := bareHost(2)
	s := NewSampler(h, Config{Interval: sim.Millisecond, Buckets: 5})
	s.Attach()
	s.Enable()
	eng.At(123*sim.Millisecond, func() { h.Inject(seg(7, 1, 50, 0)) })
	eng.Run()
	r := s.Read()
	if clock.WallTime(123*sim.Millisecond) != r.StartWall {
		t.Errorf("StartWall = %d, want first-packet time", r.StartWall)
	}
	if r.Series(CtrIn)[0] != 50 {
		t.Error("first packet not in bucket 0")
	}
}

func TestSamplerSelfClearsBeyondWindow(t *testing.T) {
	eng, h := bareHost(2)
	s := NewSampler(h, Config{Interval: sim.Millisecond, Buckets: 5})
	s.Attach()
	s.Enable()
	eng.At(0, func() { h.Inject(seg(7, 1, 100, 0)) })
	eng.At(10*sim.Millisecond, func() { h.Inject(seg(7, 1, 999, 0)) }) // beyond window
	eng.Run()
	if s.Enabled() {
		t.Error("enabled flag did not self-clear")
	}
	r := s.Read()
	if got := r.TotalBytes(CtrIn); got != 100 {
		t.Errorf("beyond-window packet was counted: total %d", got)
	}
	// Further packets take the disabled fast path.
	before := s.DisabledCalls
	h.Inject(seg(7, 1, 10, 0))
	if s.DisabledCalls != before+1 {
		t.Error("disabled path not taken")
	}
}

func TestSamplerDirectionsAndFlagCounters(t *testing.T) {
	eng, h := bareHost(2)
	s := NewSampler(h, Config{Interval: sim.Millisecond, Buckets: 5})
	s.Attach()
	s.Enable()
	eng.At(0, func() {
		h.Inject(seg(7, 1, 100, 0))
		h.Inject(seg(7, 2, 150, netsim.FlagRetx))
		h.Inject(seg(7, 3, 200, netsim.FlagCE))
		h.Send(seg(1, 4, 300, 0))
		h.Send(seg(1, 5, 350, netsim.FlagRetx))
	})
	eng.Run()
	r := s.Read()
	checks := []struct {
		kind int
		want uint64
	}{
		{CtrIn, 450}, {CtrInRetx, 150}, {CtrInECN, 200},
		{CtrOut, 650}, {CtrOutRetx, 350},
	}
	for _, c := range checks {
		if got := r.TotalBytes(c.kind); got != c.want {
			t.Errorf("counter %d = %d, want %d", c.kind, got, c.want)
		}
	}
}

func TestSamplerPerCPUAggregation(t *testing.T) {
	// Many flows spread across cores by RSS; Read must sum to the total.
	eng, h := bareHost(8)
	s := NewSampler(h, Config{Interval: sim.Millisecond, Buckets: 5, CountFlows: true})
	s.Attach()
	s.Enable()
	var want uint64
	eng.At(0, func() {
		for p := uint16(0); p < 200; p++ {
			h.Inject(seg(7, p, 100, 0))
			want += 100
		}
	})
	eng.Run()
	r := s.Read()
	if got := r.TotalBytes(CtrIn); got != want {
		t.Errorf("aggregated %d, want %d", got, want)
	}
	// 200 distinct flows in bucket 0: sketch should report a large count
	// (well above a dozen, below saturation ceiling).
	if c := r.Conns[0]; c < 100 || c > 700 {
		t.Errorf("Conns[0] = %v for 200 flows", c)
	}
}

func TestSamplerFlowCountBothDirectionsOnce(t *testing.T) {
	// A connection's data and ACKs must count as one flow.
	eng, h := bareHost(4)
	s := NewSampler(h, Config{Interval: sim.Millisecond, Buckets: 5, CountFlows: true})
	s.Attach()
	s.Enable()
	eng.At(0, func() {
		data := seg(7, 1, 1000, 0)
		h.Inject(data)
		ackSeg := &netsim.Segment{Flow: data.Flow.Reverse(), Size: 66, Flags: netsim.FlagACK}
		h.Send(ackSeg)
	})
	eng.Run()
	r := s.Read()
	if c := r.Conns[0]; math.Abs(c-1) > 0.1 {
		t.Errorf("Conns[0] = %v, want ~1 for one bidirectional connection", c)
	}
}

func TestSamplerEnableResets(t *testing.T) {
	eng, h := bareHost(2)
	s := NewSampler(h, Config{Interval: sim.Millisecond, Buckets: 5, CountFlows: true})
	s.Attach()
	s.Enable()
	eng.At(0, func() { h.Inject(seg(7, 1, 100, 0)) })
	eng.Run()
	s.Enable()
	r := s.Read()
	if r.Started || r.TotalBytes(CtrIn) != 0 {
		t.Error("Enable did not reset counters")
	}
}

func TestSamplerRunHelpers(t *testing.T) {
	eng, h := bareHost(2)
	s := NewSampler(h, Config{Interval: sim.Millisecond, Buckets: 5})
	s.Attach()
	s.Enable()
	// 1,562,500 bytes in 1ms = 12.5 Gbps = 100% utilization.
	eng.At(0, func() { h.Inject(seg(7, 1, 1_562_500/2, 0)) })
	eng.Run()
	r := s.Read()
	if u := r.Utilization(0); math.Abs(u-0.5) > 0.01 {
		t.Errorf("Utilization = %v, want 0.5", u)
	}
	if bb := r.BucketBytesAtRate(0.5); bb != 781_250 {
		t.Errorf("BucketBytesAtRate(0.5) = %d", bb)
	}
}

func TestSamplerMemoryFootprint(t *testing.T) {
	eng, h := bareHost(4)
	_ = eng
	s := NewSampler(h, DefaultConfig())
	// 5 counters * 2000 buckets * 8B + 2000 * 16B sketch, per core, 4 cores.
	want := (5*2000*8 + 2000*16) * 4
	if got := s.MemoryFootprint(); got != want {
		t.Errorf("MemoryFootprint = %d, want %d", got, want)
	}
}

func TestAlignInterpolatesHalfBucketOffset(t *testing.T) {
	mk := func(startMs int64, vals []uint64) *Run {
		r := &Run{
			Host: 1, Interval: sim.Millisecond, Buckets: len(vals),
			Started: true, StartWall: clock.WallTime(startMs * int64(sim.Millisecond)),
			LineRateBps: netsim.DefaultServerRateBps,
		}
		for k := 0; k < NumCounters; k++ {
			r.Bytes[k] = make([]uint64, len(vals))
		}
		copy(r.Bytes[CtrIn], vals)
		return r
	}
	a := mk(0, []uint64{0, 100, 200, 300, 400, 500})
	b := mk(0, []uint64{10, 10, 10, 10, 10, 10})
	// Shift b's start by +0.5ms: b's grid is offset half a bucket.
	b.StartWall += clock.WallTime(sim.Millisecond / 2)
	sr, err := Align([]*Run{a, b}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Common window starts at b's start; a is interpolated at half-buckets:
	// a ramp interpolates to midpoints 50, 150, ...
	if sr.Samples < 4 {
		t.Fatalf("Samples = %d", sr.Samples)
	}
	if got := sr.Servers[0].In[0]; math.Abs(got-50) > 1e-9 {
		t.Errorf("interpolated a[0] = %v, want 50", got)
	}
	if got := sr.Servers[1].In[0]; math.Abs(got-10) > 1e-9 {
		t.Errorf("aligned b[0] = %v, want 10", got)
	}
}

func TestAlignConstantInvariance(t *testing.T) {
	// Property: aligning a constant series yields the same constant for any
	// sub-bucket offset.
	f := func(offRaw uint8, valRaw uint16) bool {
		val := uint64(valRaw) + 1
		vals := make([]uint64, 20)
		for i := range vals {
			vals[i] = val
		}
		a := &Run{Host: 1, Interval: sim.Millisecond, Buckets: 20, Started: true, LineRateBps: 1}
		b := &Run{Host: 2, Interval: sim.Millisecond, Buckets: 20, Started: true, LineRateBps: 1}
		for k := 0; k < NumCounters; k++ {
			a.Bytes[k] = make([]uint64, 20)
			b.Bytes[k] = make([]uint64, 20)
		}
		copy(a.Bytes[CtrIn], vals)
		copy(b.Bytes[CtrIn], vals)
		off := int64(offRaw) * int64(sim.Millisecond) / 256
		b.StartWall = clock.WallTime(off)
		sr, err := Align([]*Run{a, b}, []int{0, 1})
		if err != nil {
			return false
		}
		for _, srv := range sr.Servers {
			for _, v := range srv.In {
				if math.Abs(v-float64(val)) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAlignSkipsIdleHosts(t *testing.T) {
	started := &Run{Host: 1, Interval: sim.Millisecond, Buckets: 10, Started: true, LineRateBps: 1}
	idle := &Run{Host: 2, Interval: sim.Millisecond, Buckets: 10, Started: false, LineRateBps: 1}
	for k := 0; k < NumCounters; k++ {
		started.Bytes[k] = make([]uint64, 10)
		idle.Bytes[k] = make([]uint64, 10)
	}
	sr, err := Align([]*Run{started, idle}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Samples != 10 {
		t.Errorf("Samples = %d, want full window from the started run", sr.Samples)
	}
	for _, v := range sr.Servers[1].In {
		if v != 0 {
			t.Fatal("idle host series not zero")
		}
	}
}

func TestAlignErrors(t *testing.T) {
	if _, err := Align(nil, nil); err == nil {
		t.Error("empty align did not error")
	}
	r1 := &Run{Interval: sim.Millisecond, Buckets: 5}
	if _, err := Align([]*Run{r1}, []int{0}); err == nil {
		t.Error("all-idle align did not error")
	}
	r2 := &Run{Interval: 2 * sim.Millisecond, Buckets: 5, Started: true}
	r3 := &Run{Interval: sim.Millisecond, Buckets: 5, Started: true}
	if _, err := Align([]*Run{r2, r3}, []int{0, 1}); err == nil {
		t.Error("mixed intervals did not error")
	}
}

func TestControllerEndToEnd(t *testing.T) {
	rack := testbed.NewRack(testbed.RackConfig{Servers: 4, Seed: 3})
	cfg := Config{Interval: sim.Millisecond, Buckets: 200, CountFlows: true}
	ctrl := NewController(rack, cfg)
	if err := ctrl.Schedule(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Traffic to two servers during the window.
	const transfer = 4 << 20
	for i := 0; i < 2; i++ {
		c := rack.RemoteEPs[i].Connect(rack.Servers[i].ID, 80, transport.Options{})
		total := int64(0)
		i := i
		var feed func()
		feed = func() {
			if total >= transfer {
				return
			}
			c.Send(256 << 10)
			total += 256 << 10
			rack.Eng.After(10*sim.Millisecond, feed)
		}
		rack.Eng.At(25*sim.Millisecond+sim.Time(i)*sim.Millisecond, feed)
	}
	rack.Eng.RunUntil(ctrl.HarvestAt(20*sim.Millisecond) + sim.Millisecond)

	if !ctrl.Done() {
		t.Fatal("controller never harvested")
	}
	sr, err := ctrl.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Servers) != 4 {
		t.Fatalf("SyncRun has %d servers", len(sr.Servers))
	}
	if sr.Samples < 150 || sr.Samples > 200 {
		t.Errorf("Samples = %d, want close to 200 after trimming", sr.Samples)
	}
	var in0 float64
	for _, v := range sr.Servers[0].In {
		in0 += v
	}
	// Trimming to the common window may cut the first chunk (sent before the
	// slower-starting server's first packet), so allow one chunk of slack.
	if in0 < transfer-(300<<10) {
		t.Errorf("server 0 aligned ingress %v, want close to %d transferred", in0, transfer)
	}
}

func TestControllerScheduleLeadError(t *testing.T) {
	rack := testbed.NewRack(testbed.RackConfig{Servers: 2, Seed: 1})
	ctrl := NewController(rack, DefaultConfig())
	if err := ctrl.Schedule(0); err == nil {
		t.Error("insufficient lead time did not return an error")
	}
}

func TestPeriodicRuns(t *testing.T) {
	rack := testbed.NewRack(testbed.RackConfig{Servers: 2, Seed: 5})
	s := NewSampler(rack.Servers[0], Config{Interval: sim.Millisecond, Buckets: 50})
	var stored []*Run
	var at []sim.Time
	p := &Periodic{Samplers: []*Sampler{s}, Period: 100 * sim.Millisecond, Store: func(r *Run) {
		stored = append(stored, r)
		at = append(at, rack.Eng.Now())
	}}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}

	// Background traffic so runs start.
	c := rack.RemoteEPs[0].Connect(rack.Servers[0].ID, 80, transport.Options{})
	var feed func()
	feed = func() {
		c.Send(10 << 10)
		rack.Eng.After(5*sim.Millisecond, feed)
	}
	rack.Eng.After(0, feed)
	rack.Eng.RunUntil(500 * sim.Millisecond)
	p.Stop()

	if p.Runs() < 2 {
		t.Fatalf("completed %d periodic runs, want >= 2", p.Runs())
	}
	if len(stored) != p.Runs() {
		t.Errorf("stored %d runs, completed %d", len(stored), p.Runs())
	}
	for i, r := range stored {
		if !r.Started {
			t.Errorf("run %d never started despite traffic", i)
		}
	}
	if s.Attached() {
		t.Error("sampler still attached between runs")
	}
	// Period is the gap after a harvest, not between starts: with 50 × 1 ms
	// buckets, runs are harvested Period + window + collectGrace apart.
	for i := 1; i < len(at); i++ {
		if d := at[i] - at[i-1]; d != 155*sim.Millisecond {
			t.Errorf("Store calls %d and %d are %v apart, want 155ms", i-1, i, d)
		}
	}
}

// The next three tests keep the names they had before the rotating
// scheduler folded into Periodic; they now exercise Periodic.
func TestMultiScheduleStartWithoutSamplersError(t *testing.T) {
	if err := (&Periodic{Period: sim.Millisecond}).Start(); err == nil {
		t.Error("empty schedule did not return an error")
	}
}

func TestMultiScheduleProductionIntervals(t *testing.T) {
	// At the production budget of 2000 buckets the three resolutions observe
	// 20 s, 2 s and 200 ms windows.
	wantWindow := []sim.Time{20 * sim.Second, 2 * sim.Second, 200 * sim.Millisecond}
	for i, iv := range ProductionIntervals {
		if w := (Config{Interval: iv, Buckets: 2000}).Window(); w != wantWindow[i] {
			t.Errorf("interval %v window %v, want %v", iv, w, wantWindow[i])
		}
	}
}

func TestMultiScheduleRotatesIntervals(t *testing.T) {
	// Production intervals but only 40 buckets each, so a full rotation
	// fits in a short test.
	rack := testbed.NewRack(testbed.RackConfig{Servers: 2, Seed: 51})
	var runs []*Run
	p := &Periodic{Period: 5 * sim.Millisecond, Store: func(r *Run) { runs = append(runs, r) }}
	for _, iv := range ProductionIntervals {
		p.Samplers = append(p.Samplers, NewSampler(rack.Servers[0], Config{
			Interval: iv, Buckets: 40, CountFlows: true,
		}))
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	// Continuous traffic so every run starts.
	c := rack.RemoteEPs[0].Connect(rack.Servers[0].ID, 80, transport.Options{})
	var feed func()
	feed = func() {
		c.Send(8 << 10)
		rack.Eng.After(2*sim.Millisecond, feed)
	}
	rack.Eng.After(0, feed)
	// One full rotation: 10ms*40 + 1ms*40 + 100µs*40 + gaps + grace.
	rack.Eng.RunUntil(600 * sim.Millisecond)
	p.Stop()

	if len(runs) < 3 {
		t.Fatalf("completed %d runs, want a full rotation of 3", len(runs))
	}
	for i := 0; i < 3; i++ {
		if runs[i].Interval != ProductionIntervals[i] {
			t.Errorf("run %d interval %v, want %v", i, runs[i].Interval, ProductionIntervals[i])
		}
		if !runs[i].Started {
			t.Errorf("run %d never started", i)
		}
	}
	if p.Runs() != len(runs) {
		t.Errorf("Runs() = %d, stored %d", p.Runs(), len(runs))
	}
}

func TestPcapLikeCapturesAndDrops(t *testing.T) {
	p := NewPcapLike(100, 4)
	s := seg(7, 1, 500, netsim.FlagCE)
	for i := 0; i < 6; i++ {
		p.Handle(sim.Time(i), 0, netsim.Ingress, s)
	}
	if p.Captured != 4 || p.Dropped != 2 {
		t.Errorf("captured=%d dropped=%d, want 4/2", p.Captured, p.Dropped)
	}
	if n := p.Drain(); n != 4 {
		t.Errorf("Drain = %d", n)
	}
	p.Handle(7, 0, netsim.Ingress, s)
	if p.Captured != 5 {
		t.Error("capture after drain failed")
	}
}

func TestRunSeriesPanicsOnBadKind(t *testing.T) {
	r := &Run{}
	defer func() {
		if recover() == nil {
			t.Error("Series(99) did not panic")
		}
	}()
	r.Series(99)
}
