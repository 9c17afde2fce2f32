package integration

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestNICLossSignature is the §4.2 firmware-bug story: a NIC that silently
// drops frames under light, smooth load. Millisampler sees retransmitted
// bytes while no 1 ms sample comes near burst utilization and the switch
// discards nothing, which places the loss below the ToR.
func TestNICLossSignature(t *testing.T) {
	rack := testbed.NewRack(testbed.RackConfig{Servers: 4, Seed: 61})
	workload.Install(rack, 0, workload.Profile{Name: "smooth", BackgroundUtil: 0.08}, rack.RNG.Fork(1))
	rack.Servers[0].NICDropRate = 0.002

	s := core.NewSampler(rack.Servers[0], core.Config{Interval: sim.Millisecond, Buckets: 2000})
	s.Attach()
	s.Enable()
	rack.Eng.RunUntil(2100 * sim.Millisecond)
	run := s.Read()

	peak := 0.0
	for i := 0; i < run.Buckets; i++ {
		peak = max(peak, run.Utilization(i))
	}
	retx := run.TotalBytes(core.CtrInRetx)
	discards := rack.Switch.Totals().DiscardSegments
	drops := rack.Servers[0].NICDrops
	t.Logf("retx %.1f KB, peak 1 ms utilization %.1f%%, switch discards %d, NIC drops %d",
		float64(retx)/1e3, 100*peak, discards, drops)
	if retx == 0 {
		t.Error("no retransmitted bytes sampled")
	}
	if th := analysis.DefaultOptions().BurstThreshold; peak >= th {
		t.Errorf("peak 1 ms utilization %.3f reaches the burst threshold %.2f", peak, th)
	}
	if discards != 0 {
		t.Errorf("switch discarded %d segments; the loss should be below the ToR", discards)
	}
	if drops == 0 {
		t.Error("the NIC dropped nothing")
	}
}

// TestIncastLossOnset fans a 4 MB response over N fresh DCTCP connections
// into one server of an otherwise idle rack. The initial windows fit the
// lone queue's DT share up to N = 64; from N = 128 they overflow it, and
// discards do not fall as the fan-in grows.
func TestIncastLossOnset(t *testing.T) {
	prev := int64(0)
	for _, fan := range []int{8, 32, 64, 128, 192, 256} {
		rack := testbed.NewRack(testbed.RackConfig{Servers: 16, Remotes: 4 * 16 * 2, Seed: 99})
		per := int64(4<<20) / int64(fan)
		for i := 0; i < fan; i++ {
			c := rack.RemoteEPs[i%len(rack.RemoteEPs)].Connect(rack.Servers[0].ID, 80, transport.Options{})
			c.Send(per)
		}
		rack.Eng.RunUntil(2 * sim.Second)
		d := rack.Switch.QueueStats(0).DiscardSegments
		t.Logf("fan-in %3d: %d discards", fan, d)
		switch {
		case fan <= 64 && d != 0:
			t.Errorf("fan-in %d: %d discards, want none below the DT share", fan, d)
		case fan == 128 && d == 0:
			t.Errorf("fan-in %d: no discards, want loss once initial windows exceed the DT share", fan)
		case d < prev:
			t.Errorf("fan-in %d: %d discards, fewer than %d at the previous fan-in", fan, d, prev)
		}
		prev = d
	}
}

// TestColocationConcentratesContention is the §9 placement implication: 20
// ML-ingest servers packed into one 24-server rack give it about twice the
// average contention of either rack when the same job is split ten and ten,
// yet no rack loses in as many as 1 % of its bursts.
func TestColocationConcentratesContention(t *testing.T) {
	const servers = 24
	placeRack := func(seed uint64, nML int) *analysis.RunAnalysis {
		r := testbed.NewRack(testbed.RackConfig{Servers: servers, Seed: seed})
		rng := r.RNG.Fork(1)
		profiles := make([]workload.Profile, servers)
		for i := range profiles {
			switch {
			case i >= nML:
				profiles[i] = workload.PickTypical(rng)
			case i%7 == 6:
				profiles[i] = workload.MLReader
			default:
				profiles[i] = workload.MLTrain
			}
		}
		if _, err := workload.InstallRack(r, profiles, rng); err != nil {
			t.Fatal(err)
		}
		ctrl := core.NewController(r, core.Config{Interval: sim.Millisecond, Buckets: 1500, CountFlows: true})
		if err := ctrl.Schedule(150 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		r.Eng.RunUntil(ctrl.HarvestAt(150*sim.Millisecond) + sim.Millisecond)
		sr, err := ctrl.Result()
		if err != nil {
			t.Fatal(err)
		}
		ra := analysis.Analyze(sr, analysis.DefaultOptions())
		lossy := 0
		for _, b := range ra.Bursts {
			if b.Lossy {
				lossy++
			}
		}
		share := float64(lossy) / float64(max(1, len(ra.Bursts)))
		t.Logf("rack seed %d, %2d ML: avg contention %.2f, %d bursts, %.2f%% lossy",
			seed, nML, ra.AvgContention(), len(ra.Bursts), 100*share)
		if share >= 0.01 {
			t.Errorf("rack seed %d: %.2f%% of bursts lossy, want < 1%%", seed, 100*share)
		}
		return ra
	}

	packed := placeRack(71, 20).AvgContention()
	for _, seed := range []uint64{73, 74} {
		if spread := placeRack(seed, 10).AvgContention(); packed < 1.8*spread {
			t.Errorf("co-located contention %.2f < 1.8 x spread rack %d's %.2f", packed, seed, spread)
		}
	}
}
