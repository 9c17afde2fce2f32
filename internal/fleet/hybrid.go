package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fluid"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// simulateRunHybrid is the Fidelity == FidelityHybrid engine behind
// SimulateRunFull: the same rack construction and the same deterministic
// (cfg, spec, hour) contract, but the rack-hour itself runs on the hybrid
// fluid/packet path. The returned SyncRun and counters are distributionally —
// not byte — equivalent to the full engine's.
func simulateRunHybrid(cfg Config, spec RackSpec, hour int, rack *testbed.Rack, profiles []workload.Profile) (*core.SyncRun, SwitchCounters, error) {
	res, err := fluid.SimulateRack(rack, profiles, rack.RNG.Fork(0x10AD), fluid.Config{
		Sampler: core.Config{Interval: cfg.Interval, Buckets: cfg.Buckets, CountFlows: true},
	})
	if err != nil {
		return nil, SwitchCounters{}, fmt.Errorf("rack %s/%d hour %d (hybrid): %w", spec.Region, spec.ID, hour, err)
	}
	return res.Sync, SwitchCounters{
		Before:         res.Before,
		After:          res.After,
		PeakQueueBytes: res.PeakQueueBytes,
	}, nil
}
