package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// SwitchCounters is the rack switch's full counter state around one sampling
// window: the cumulative totals at window open and at harvest, plus the peak
// single-queue occupancy. GenerateStream reduces it to the compact
// SwitchDelta the dataset stores; the sweep engine reads the whole thing (ECN
// marks and peaks are counterfactual outputs the dataset format never
// needed).
type SwitchCounters struct {
	Before, After switchsim.QueueStats
	// PeakQueueBytes is the highest occupancy any single egress queue reached
	// over the rack-hour (warmup included) — the burst-absorption headroom
	// figure sharing-policy counterfactuals compare.
	PeakQueueBytes int
	// Margins are the sharing rules the switch's admissions did not tell
	// apart from its own; a failed rack-hour has them too.
	Margins switchsim.Margins
}

// Reproduces reports whether base with Switch = o would have produced the
// rack-hour that had counters c under base with Switch = ran, failure
// included: o must take ran's route (hybridRoute), and its switch must have
// answered every admission alike (switchsim.Margins.Alike).
func (c SwitchCounters) Reproduces(base Config, ran, o SwitchOverride) bool {
	was, alt := base, base
	was.Switch, alt.Switch = ran, o
	return alt.hybridRoute() == was.hybridRoute() &&
		c.Margins.Alike(o.Apply(switchsim.DefaultConfig(base.ServersPerRack)))
}

// Delta returns the counter movement across the window. PeakBytes is not a
// counter and stays zero; use PeakQueueBytes.
func (c SwitchCounters) Delta() switchsim.QueueStats {
	return switchsim.QueueStats{
		EnqueuedBytes:    c.After.EnqueuedBytes - c.Before.EnqueuedBytes,
		EnqueuedSegments: c.After.EnqueuedSegments - c.Before.EnqueuedSegments,
		DiscardBytes:     c.After.DiscardBytes - c.Before.DiscardBytes,
		DiscardSegments:  c.After.DiscardSegments - c.Before.DiscardSegments,
		ECNMarkedBytes:   c.After.ECNMarkedBytes - c.Before.ECNMarkedBytes,
		ECNMarkedSegs:    c.After.ECNMarkedSegs - c.Before.ECNMarkedSegs,
		DequeuedBytes:    c.After.DequeuedBytes - c.Before.DequeuedBytes,
	}
}

// asDelta reduces the full counters to the compact form the dataset stores.
func (c SwitchCounters) asDelta() SwitchDelta {
	d := c.Delta()
	return SwitchDelta{
		EnqueuedBytes: d.EnqueuedBytes,
		DiscardBytes:  d.DiscardBytes,
		DiscardSegs:   d.DiscardSegments,
	}
}

// SimulateRunFull executes one rack-hour run and returns the aligned SyncRun
// plus the switch's full counter movement and margins. It is deterministic in
// (cfg, spec, hour); cfg.Switch routes the rack through the counterfactual
// configuration when non-zero and through the exact historical path when
// zero.
func SimulateRunFull(cfg Config, spec RackSpec, hour int) (*core.SyncRun, SwitchCounters, error) {
	cfg = cfg.withDefaults()
	rack, profiles := hourRack(cfg, spec, hour)
	run := simulateRunPacket
	if cfg.hybridRoute() {
		run = simulateRunHybrid
	}
	sr, sc, err := run(cfg, spec, hour, rack, profiles)
	sc.Margins = rack.Switch.Margins()
	return sr, sc, err
}

// hybridRoute reports whether cfg's rack-hours run on the hybrid fast path.
// Overrides HybridCompatible excludes (BShare, ABM, ECN off) silently
// fall back to full packet fidelity: the dataset stays correct and the digest
// stays a pure function of the config either way. The host-stack instrument
// takes the same route: fluid intervals deliver no per-segment events for the
// tap to timestamp.
func (c Config) hybridRoute() bool {
	return c.Fidelity == FidelityHybrid && c.Switch.HybridCompatible() && !c.HostStack
}

// simulateRunPacket is the full packet engine behind SimulateRunFull.
func simulateRunPacket(cfg Config, spec RackSpec, hour int, rack *testbed.Rack, profiles []workload.Profile) (*core.SyncRun, SwitchCounters, error) {
	if _, err := workload.InstallRack(rack, profiles, rack.RNG.Fork(0x10AD)); err != nil {
		return nil, SwitchCounters{}, fmt.Errorf("rack %s/%d hour %d: %w", spec.Region, spec.ID, hour, err)
	}

	ctrl := core.NewController(rack, core.Config{
		Interval: cfg.Interval, Buckets: cfg.Buckets, CountFlows: true,
		HostStack: cfg.HostStack,
	})
	if err := ctrl.Schedule(warmup); err != nil {
		return nil, SwitchCounters{}, fmt.Errorf("rack %s/%d hour %d: %w", spec.Region, spec.ID, hour, err)
	}

	var sc SwitchCounters
	rack.Eng.At(warmup, func() { sc.Before = rack.Switch.Totals() })
	rack.Eng.RunUntil(ctrl.HarvestAt(warmup) + sim.Millisecond)
	sc.After = rack.Switch.Totals()
	if !ctrl.Done() {
		// Harvest RPCs are still retrying (lossy control plane or crashed
		// hosts); let the straggler window play out. The switch counters were
		// already captured at the nominal harvest point.
		rack.Eng.RunUntil(ctrl.HarvestDeadline(warmup) + sim.Millisecond)
	}
	sc.PeakQueueBytes = rack.Switch.PeakQueueBytes()

	sr, err := ctrl.Result()
	if err != nil {
		return nil, SwitchCounters{}, fmt.Errorf("rack %s/%d hour %d: %w", spec.Region, spec.ID, hour, err)
	}
	return sr, sc, nil
}

// hourRack builds one rack-hour's rack and its scaled profiles, the set-up
// both fidelities share: the seed is derived from (spec, hour), cfg.Switch is
// applied when non-zero, and every profile is scaled by the hour's diurnal
// factor and the rack's intensity.
func hourRack(cfg Config, spec RackSpec, hour int) (*testbed.Rack, []workload.Profile) {
	rcfg := testbed.RackConfig{
		Servers: cfg.ServersPerRack,
		Remotes: 4 * cfg.ServersPerRack,
		Seed:    spec.Seed ^ (uint64(hour+1) * 0x9e3779b97f4a7c15),
	}
	if !cfg.Switch.IsZero() {
		rcfg.Switch = cfg.Switch.Apply(switchsim.DefaultConfig(cfg.ServersPerRack))
	}
	scale := DiurnalFactor(hour) * spec.Intensity
	profiles := make([]workload.Profile, len(spec.Profiles))
	for i, p := range spec.Profiles {
		profiles[i] = p.Scale(scale)
	}
	return testbed.NewRack(rcfg), profiles
}
