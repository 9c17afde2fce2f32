package testbed

import (
	"errors"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestDefaultsApplied(t *testing.T) {
	r := NewRack(RackConfig{Seed: 1})
	if len(r.Servers) != 16 {
		t.Errorf("default servers = %d", len(r.Servers))
	}
	if len(r.Remotes) != 64 {
		t.Errorf("default remotes = %d", len(r.Remotes))
	}
	if r.Servers[0].LineRateBps() != netsim.DefaultServerRateBps {
		t.Errorf("server rate = %d", r.Servers[0].LineRateBps())
	}
	if r.Servers[0].Cores != 4 {
		t.Errorf("cores = %d", r.Servers[0].Cores)
	}
}

func TestPortMapping(t *testing.T) {
	r := NewRack(RackConfig{Servers: 8, Seed: 2})
	for i, h := range r.Servers {
		p, ok := r.Port(h.ID)
		if !ok || p != i {
			t.Errorf("server %d mapped to port %d,%v", i, p, ok)
		}
	}
	if _, ok := r.Port(RemoteIDBase); ok {
		t.Error("remote host has a downlink port")
	}
}

func TestRemoteToServerPath(t *testing.T) {
	r := NewRack(RackConfig{Servers: 4, Seed: 3})
	var arrived []sim.Time
	r.Servers[2].SetProtocolHandler(func(seg *netsim.Segment) {
		arrived = append(arrived, r.Eng.Now())
	})
	seg := &netsim.Segment{
		Flow: netsim.FlowKey{Src: r.Remotes[0].ID, Dst: r.Servers[2].ID, SrcPort: 1, DstPort: 2},
		Size: 9000,
	}
	r.Remotes[0].Send(seg)
	r.Eng.RunUntil(10 * sim.Millisecond)
	if len(arrived) != 1 {
		t.Fatalf("delivered %d times", len(arrived))
	}
	// NIC serialization (9000B at 25G = 2.88µs) + fabric 10µs + ToR drain
	// (9000B at 12.5G = 5.76µs): at least 18µs.
	if arrived[0] < 18*sim.Microsecond || arrived[0] > 100*sim.Microsecond {
		t.Errorf("arrival at %v outside plausible path latency", arrived[0])
	}
	if r.Switch.QueueStats(2).EnqueuedSegments != 1 {
		t.Error("segment did not pass through the ToR queue")
	}
}

func TestServerToRemotePathSkipsQueues(t *testing.T) {
	r := NewRack(RackConfig{Servers: 4, Seed: 4})
	got := 0
	r.Remotes[1].SetProtocolHandler(func(*netsim.Segment) { got++ })
	seg := &netsim.Segment{
		Flow: netsim.FlowKey{Src: r.Servers[0].ID, Dst: r.Remotes[1].ID, SrcPort: 1, DstPort: 2},
		Size: 9000,
	}
	r.Servers[0].Send(seg)
	r.Eng.RunUntil(10 * sim.Millisecond)
	if got != 1 {
		t.Fatalf("delivered %d times", got)
	}
	for p := 0; p < 4; p++ {
		if r.Switch.QueueStats(p).EnqueuedSegments != 0 {
			t.Error("uplink traffic traversed a downlink queue")
		}
	}
}

func TestRackLocalHairpin(t *testing.T) {
	r := NewRack(RackConfig{Servers: 4, Seed: 5})
	got := 0
	r.Servers[3].SetProtocolHandler(func(*netsim.Segment) { got++ })
	seg := &netsim.Segment{
		Flow: netsim.FlowKey{Src: r.Servers[0].ID, Dst: r.Servers[3].ID, SrcPort: 1, DstPort: 2},
		Size: 5000,
	}
	r.Servers[0].Send(seg)
	r.Eng.RunUntil(10 * sim.Millisecond)
	if got != 1 {
		t.Fatalf("delivered %d times", got)
	}
	if r.Switch.QueueStats(3).EnqueuedSegments != 1 {
		t.Error("rack-local traffic skipped the destination queue")
	}
}

func TestRemoteToRemotePath(t *testing.T) {
	r := NewRack(RackConfig{Servers: 4, Seed: 6})
	got := 0
	r.Remotes[2].SetProtocolHandler(func(*netsim.Segment) { got++ })
	seg := &netsim.Segment{
		Flow: netsim.FlowKey{Src: r.Remotes[0].ID, Dst: r.Remotes[2].ID, SrcPort: 1, DstPort: 2},
		Size: 1000,
	}
	r.Remotes[0].Send(seg)
	r.Eng.RunUntil(10 * sim.Millisecond)
	if got != 1 {
		t.Fatalf("delivered %d times", got)
	}
}

func TestUnroutableDestinationDropped(t *testing.T) {
	r := NewRack(RackConfig{Servers: 2, Remotes: 2, Seed: 7})
	idle := r.Eng.Pending() // clock daemons
	for _, h := range []*netsim.Host{r.Remotes[0], r.Servers[0]} {
		h.Send(&netsim.Segment{
			Flow: netsim.FlowKey{Src: h.ID, Dst: 9999, SrcPort: 1, DstPort: 2},
			Size: 100,
		})
		// Counted at Send time, after the NIC has been charged as before.
		if h.NIC().TxBytes != 100 {
			t.Errorf("host %d NIC TxBytes = %d, want 100", h.ID, h.NIC().TxBytes)
		}
	}
	if r.UnroutableDrops != 2 {
		t.Errorf("UnroutableDrops = %d, want 2", r.UnroutableDrops)
	}
	if n := r.Eng.Pending() - idle; n != 0 {
		t.Errorf("%d events scheduled for dropped segments", n)
	}
}

func TestControlPlaneReliableByDefault(t *testing.T) {
	r := NewRack(RackConfig{Servers: 2, Seed: 8})
	var ran, doneAt int
	var errGot error
	r.Control.Call(r.Servers[0], func() { ran++ }, func(err error) { errGot = err; doneAt++ })
	r.Eng.RunUntil(10 * sim.Millisecond)
	if ran != 1 || doneAt != 1 || errGot != nil {
		t.Fatalf("ran=%d done=%d err=%v", ran, doneAt, errGot)
	}
	if r.Control.Calls != 1 || r.Control.Failures != 0 {
		t.Errorf("calls=%d failures=%d", r.Control.Calls, r.Control.Failures)
	}
}

func TestControlPlaneHostDown(t *testing.T) {
	r := NewRack(RackConfig{Servers: 2, Seed: 9})
	r.Servers[0].Crash(50 * sim.Millisecond)
	var errGot error
	ran := false
	r.Control.Call(r.Servers[0], func() { ran = true }, func(err error) { errGot = err })
	r.Eng.RunUntil(10 * sim.Millisecond)
	if ran {
		t.Error("op ran against a down host")
	}
	if !errors.Is(errGot, ErrHostDown) {
		t.Errorf("err = %v, want ErrHostDown", errGot)
	}
	if r.Control.Unreachable != 1 {
		t.Errorf("Unreachable = %d", r.Control.Unreachable)
	}
}

func TestControlPlaneSeededFailures(t *testing.T) {
	r := NewRack(RackConfig{Servers: 2, Seed: 10, Control: ControlConfig{FailProb: 0.5}})
	failures := 0
	const n = 2000
	for i := 0; i < n; i++ {
		r.Control.Call(r.Servers[0], nil, func(err error) {
			if errors.Is(err, ErrRPCFailed) {
				failures++
			} else if err != nil {
				t.Errorf("unexpected error %v", err)
			}
		})
	}
	r.Eng.RunUntil(10 * sim.Millisecond)
	frac := float64(failures) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("failure fraction %v, want ~0.5", frac)
	}
	if r.Control.Failures != int64(failures) {
		t.Errorf("Failures counter %d != observed %d", r.Control.Failures, failures)
	}
}

func TestDeterministicTopology(t *testing.T) {
	a := NewRack(RackConfig{Servers: 4, Seed: 42})
	b := NewRack(RackConfig{Servers: 4, Seed: 42})
	// Same seed => same clock offsets.
	for i := range a.Servers {
		if a.Servers[i].Clock.Offset(0) != b.Servers[i].Clock.Offset(0) {
			t.Fatal("clock offsets differ across identical builds")
		}
	}
}
