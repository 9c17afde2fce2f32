package fleet

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/switchsim"
)

func TestSwitchOverrideApply(t *testing.T) {
	base := switchsim.DefaultConfig(48)
	if got := (SwitchOverride{}).Apply(base); got != base {
		t.Errorf("zero override changed the config: %+v", got)
	}
	o := SwitchOverride{Policy: switchsim.PolicyStatic, Alpha: 2, ECNThreshold: 60 << 10}
	got := o.Apply(base)
	if got.Policy != switchsim.PolicyStatic || got.Alpha != 2 || got.ECNThreshold != 60<<10 {
		t.Errorf("override not applied: %+v", got)
	}
	if got.TotalBuffer != base.TotalBuffer || got.DedicatedPerQueue != base.DedicatedPerQueue {
		t.Errorf("unset fields drifted: %+v", got)
	}
}

func TestConfigValidateChecksOverride(t *testing.T) {
	cfg := SmallConfig()
	cfg.Switch = SwitchOverride{Policy: switchsim.Policy(9)}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "unknown sharing policy") {
		t.Errorf("unknown policy not rejected: %v", err)
	}
	cfg.Switch = SwitchOverride{Alpha: -1}
	if err := cfg.Validate(); err == nil {
		t.Error("negative alpha not rejected")
	}
	cfg.Switch = SwitchOverride{ECNThreshold: 1 << 30}
	if err := cfg.Validate(); err == nil {
		t.Error("out-of-buffer ECN threshold not rejected")
	}
	cfg.Switch = SwitchOverride{Policy: switchsim.PolicyComplete, ECNThreshold: 60 << 10}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid override rejected: %v", err)
	}
}

func TestSwitchOverrideJSONRoundTrip(t *testing.T) {
	o := SwitchOverride{Policy: switchsim.PolicyStatic, Alpha: 0.5, ECNThreshold: 60 << 10}
	b, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	var back SwitchOverride
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != o {
		t.Errorf("round trip: %+v != %+v", back, o)
	}
	// The zero override (the baseline point) must encode to an empty object
	// so sweep manifests stay minimal and stable.
	b, _ = json.Marshal(SwitchOverride{})
	if string(b) != "{}" {
		t.Errorf("zero override encodes to %s", b)
	}
}

func TestSwitchOverrideString(t *testing.T) {
	if s := (SwitchOverride{}).String(); s != "baseline" {
		t.Errorf("zero override String() = %q", s)
	}
	o := SwitchOverride{Alpha: 2, ECNThreshold: 60 << 10}
	if s := o.String(); !strings.Contains(s, "a=2") || !strings.Contains(s, "ecn=60K") {
		t.Errorf("String() = %q", s)
	}
	o = SwitchOverride{Policy: switchsim.PolicyABM, Alpha: 4}
	if s := o.String(); !strings.Contains(s, "abm") || !strings.Contains(s, "a=4") {
		t.Errorf("ABM String() = %q", s)
	}
	o = SwitchOverride{Policy: switchsim.PolicyBShare, BShareDelay: 100 * sim.Microsecond}
	if s := o.String(); !strings.Contains(s, "bshare") || !strings.Contains(s, "100µs") {
		t.Errorf("BShare String() = %q", s)
	}
	o = SwitchOverride{ECNThreshold: switchsim.ECNOff}
	if s := o.String(); !strings.Contains(s, "ecn=off") {
		t.Errorf("ECNOff String() = %q", s)
	}
}

func TestSwitchOverrideApplyBShareAndECNOff(t *testing.T) {
	base := switchsim.DefaultConfig(48)
	o := SwitchOverride{Policy: switchsim.PolicyBShare, BShareDelay: 100 * sim.Microsecond}
	got := o.Apply(base)
	if got.Policy != switchsim.PolicyBShare || got.BShareDelayTarget != 100*sim.Microsecond {
		t.Errorf("bshare override not applied: %+v", got)
	}
	// The ECNOff sentinel must pass through Apply (it is non-zero) and
	// Validate so "marking disabled" is an expressible counterfactual.
	o = SwitchOverride{ECNThreshold: switchsim.ECNOff}
	if got := o.Apply(base); got.ECNThreshold != switchsim.ECNOff {
		t.Errorf("ECNOff override lost: ECNThreshold = %d", got.ECNThreshold)
	}
	if err := o.Validate(48); err != nil {
		t.Errorf("ECNOff override rejected: %v", err)
	}
}

func TestHybridCompatible(t *testing.T) {
	cases := []struct {
		o    SwitchOverride
		want bool
	}{
		{SwitchOverride{}, true},
		{SwitchOverride{Policy: switchsim.PolicyDT, Alpha: 4}, true},
		{SwitchOverride{Policy: switchsim.PolicyStatic}, true},
		{SwitchOverride{Policy: switchsim.PolicyComplete}, true},
		{SwitchOverride{Policy: switchsim.PolicyBShare}, false},
		{SwitchOverride{Policy: switchsim.PolicyABM}, false},
		{SwitchOverride{ECNThreshold: switchsim.ECNOff}, false},
		{SwitchOverride{Policy: switchsim.PolicyStatic, ECNThreshold: switchsim.ECNOff}, false},
	}
	for _, tc := range cases {
		if got := tc.o.HybridCompatible(); got != tc.want {
			t.Errorf("%s: HybridCompatible() = %v, want %v", tc.o, got, tc.want)
		}
	}
}

// TestShadowedRunRoutes: only an alternative on the same route whose switch
// differs in nothing but the sharing policy's parameters can reproduce a run.
func TestShadowedRunRoutes(t *testing.T) {
	cfg := hsTinyConfig(5)
	cfg.Fidelity = FidelityHybrid
	spec, ok := FindRack(cfg, RegA, 0)
	if !ok {
		t.Fatal("rack not found")
	}
	alts := []SwitchOverride{
		{Policy: switchsim.PolicyDT, Alpha: 1},                     // the baseline's own switch
		{Policy: switchsim.PolicyABM},                              // packet route under hybrid
		{ECNThreshold: switchsim.ECNOff},                           // packet route, other ECN
		{Policy: switchsim.PolicyComplete, ECNThreshold: 60 << 10}, // other ECN
	}
	want := []bool{true, false, false, false}
	_, sc, err := SimulateRunFull(cfg, spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range alts {
		if got := sc.Reproduces(cfg, cfg.Switch, o); got != want[i] {
			t.Errorf("%s: Reproduces = %v, want %v", o, got, want[i])
		}
	}
}
