package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/fleet"
	"repro/internal/switchsim"
)

// TestWorkUnitPolicyRoundTrip pins the wire encoding of the policy-zoo
// knobs: a shard unit carrying a BShare/ABM/ECN-off override must survive
// the JSON hop to a worker intact, including the named policy, the delay
// budget, and the ECNOff sentinel (whose -1 must not be confused with the
// omitted zero).
func TestWorkUnitPolicyRoundTrip(t *testing.T) {
	for _, o := range []fleet.SwitchOverride{
		{Policy: switchsim.PolicyBShare, BShareDelay: switchsim.DefaultBShareDelayTarget / 2},
		{Policy: switchsim.PolicyABM, Alpha: 4},
		{ECNThreshold: switchsim.ECNOff},
	} {
		cfg := tinyHybridConfig()
		cfg.Switch = o
		unit := &WorkUnit{ID: "shard:RegA/0", Kind: KindShard, Config: cfg, Region: fleet.RegA}
		b, err := json.Marshal(unit)
		if err != nil {
			t.Fatalf("%s: marshal: %v", o, err)
		}
		var back WorkUnit
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", o, err)
		}
		if back.Config.Switch != o {
			t.Errorf("override round trip: %+v != %+v", back.Config.Switch, o)
		}
	}
}

// TestWorkerForcesFullForUnmodeledPolicy mirrors fleet's forced-full
// contract across the distributed path: a hybrid-fidelity unit whose
// override the fluid model cannot represent must compute the identical
// payload a full-fidelity unit does.
func TestWorkerForcesFullForUnmodeledPolicy(t *testing.T) {
	unit := &WorkUnit{
		ID:     "shard:RegA/0",
		Kind:   KindShard,
		Config: tinyHybridConfig(),
		Region: fleet.RegA,
		RackID: 0,
	}
	unit.Config.Switch = fleet.SwitchOverride{Policy: switchsim.PolicyBShare}
	w := &Worker{}
	ph, err := w.compute(context.Background(), unit)
	if err != nil {
		t.Fatalf("hybrid: %v", err)
	}
	full := *unit
	full.Config.Fidelity = fleet.FidelityFull
	pf, err := w.compute(context.Background(), &full)
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if !bytes.Equal(ph, pf) {
		t.Error("bshare hybrid payload differs from full — forced-full dispatch lost on the worker path")
	}
	if len(ph) == 0 {
		t.Fatal("empty shard payload")
	}
}
