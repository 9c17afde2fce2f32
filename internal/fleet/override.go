package fleet

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/switchsim"
)

// SwitchOverride selects the counterfactual ToR knobs a generation applies to
// every rack — the axis the what-if sweep engine drives. Zero fields keep the
// production-mirroring defaults (dynamic thresholds, alpha 1, 120 KB ECN
// threshold, 200 us BShare budget), so the zero override reproduces the
// measured fleet byte for byte.
type SwitchOverride struct {
	// Policy selects the shared-buffer admission discipline. The zero value
	// is PolicyDT, the production policy.
	Policy switchsim.Policy `json:"policy,omitempty"`
	// Alpha overrides the DT/ABM parameter (0 keeps the default 1).
	Alpha float64 `json:"alpha,omitempty"`
	// ECNThreshold overrides the static per-queue marking threshold in bytes
	// (0 keeps the default 120 KB; switchsim.ECNOff disables marking).
	ECNThreshold int `json:"ecn_threshold,omitempty"`
	// BShareDelay overrides the BShare per-queue delay budget (0 keeps the
	// default 200 us). Ignored by the other policies.
	BShareDelay sim.Time `json:"bshare_delay,omitempty"`
}

// IsZero reports whether the override changes nothing. Generation only
// routes through the override path for non-zero overrides, so baseline
// datasets keep their historical digests.
func (o SwitchOverride) IsZero() bool { return o == SwitchOverride{} }

// Apply folds the override into a concrete switch configuration.
func (o SwitchOverride) Apply(base switchsim.Config) switchsim.Config {
	base.Policy = o.Policy
	if o.Alpha != 0 {
		base.Alpha = o.Alpha
	}
	if o.ECNThreshold != 0 {
		base.ECNThreshold = o.ECNThreshold
	}
	if o.BShareDelay != 0 {
		base.BShareDelayTarget = o.BShareDelay
	}
	return base
}

// Validate checks the override against the production defaults for a rack
// with the given port count, so a sweep grid rejects impossible points before
// any rack-hour is simulated.
func (o SwitchOverride) Validate(ports int) error {
	if o.IsZero() {
		return nil
	}
	if err := o.Apply(switchsim.DefaultConfig(ports)).Validate(); err != nil {
		return fmt.Errorf("fleet: switch override: %w", err)
	}
	return nil
}

// HybridCompatible reports whether the hybrid fast path may generate under
// this override. The fluid accountant bakes in DT-shaped buffer sharing and
// default-on ECN; BShare reshapes admission (and ECN-off reshapes the
// transport feedback loop) in ways it does not model, so those points force
// full packet fidelity instead of silently blending two disagreeing models.
// ABM admits exactly as DT does here, so it needs no exclusion; it keeps one
// only so that the pinned zoo and demo sweep digests, which record their ABM
// points at full fidelity, stay as they are.
func (o SwitchOverride) HybridCompatible() bool {
	switch o.Policy {
	case switchsim.PolicyDT, switchsim.PolicyStatic, switchsim.PolicyComplete:
		return o.ECNThreshold != switchsim.ECNOff
	default:
		return false
	}
}

// String renders the override compactly for progress lines and point labels.
func (o SwitchOverride) String() string {
	if o.IsZero() {
		return "baseline"
	}
	s := o.Policy.String()
	if o.Policy == switchsim.PolicyDT || o.Policy == switchsim.PolicyABM {
		a := o.Alpha
		if a == 0 {
			a = 1
		}
		s = fmt.Sprintf("%s a=%g", map[switchsim.Policy]string{
			switchsim.PolicyDT: "dt", switchsim.PolicyABM: "abm",
		}[o.Policy], a)
	}
	if o.Policy == switchsim.PolicyBShare && o.BShareDelay != 0 {
		s += fmt.Sprintf(" d=%v", o.BShareDelay)
	}
	if o.ECNThreshold == switchsim.ECNOff {
		s += " ecn=off"
	} else if o.ECNThreshold != 0 {
		s += fmt.Sprintf(" ecn=%dK", o.ECNThreshold>>10)
	}
	return s
}
