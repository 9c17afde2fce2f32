// Package sweep is the fleet-scale what-if engine: it re-runs the simulated
// fleet's rack-hours under a declarative grid of counterfactual ToR
// configurations (sharing policy × DT alpha × ECN threshold × buffer sizing)
// and compares every point against the measured baseline (dynamic thresholds,
// alpha 1). This is the prescriptive half of the paper's §9: because
// contention shrinks every queue's DT share, the right sharing parameters
// depend on a rack's contention regime — the sweep quantifies how much, per
// contention class, without new measurement infrastructure.
//
// A Spec (JSON) expands to a deterministic point grid; Run executes it into a
// resumable result directory in the style of the sharded dataset: per-point
// JSON results with sha256 digests tracked by an atomically updated manifest,
// so a killed sweep resumes where it stopped, completed points are verified
// and skipped, and a spec or seed mismatch is refused rather than mixed.
package sweep

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/switchsim"
)

// FormatVersion is bumped on any incompatible change to the manifest or
// point encoding.
const FormatVersion = 1

// ErrSpecMismatch matches (via errors.Is) an attempt to resume a result
// directory with a different spec or seed than it was started with.
var ErrSpecMismatch = errors.New("sweep: spec mismatch")

// ErrIncomplete matches an attempt to read a sweep whose execution has not
// finished; re-run cmd/sweep with the same spec to resume it.
var ErrIncomplete = errors.New("sweep: execution incomplete")

// ErrCorruptPoint matches a point file whose contents do not hash to the
// digest recorded in the manifest.
var ErrCorruptPoint = errors.New("sweep: corrupt point")

// Spec declares a counterfactual sweep: the fleet to re-run and the grid of
// switch configurations to re-run it under. The JSON form is what cmd/sweep
// reads; zero/absent axes collapse to the production default for that knob.
type Spec struct {
	// Name labels the sweep in progress output and reports.
	Name string `json:"name,omitempty"`
	// Fleet is the base generation configuration (racks, hours, buckets,
	// seed). Its Switch override must be zero — the grid owns that axis —
	// and Workers is a scheduling knob that never affects results.
	Fleet fleet.Config `json:"fleet"`
	// Policies lists the sharing disciplines to sweep, by name ("dt",
	// "static", "complete", "bshare", "abm"). Empty means DT only.
	Policies []switchsim.Policy `json:"policies,omitempty"`
	// Alphas lists threshold-scaling parameters to sweep. Only meaningful
	// under PolicyDT and PolicyABM; the other policies ignore alpha and get
	// one point each. Empty means {1}.
	Alphas []float64 `json:"alphas,omitempty"`
	// ECNThresholds lists static marking thresholds in bytes (0 = default
	// 120 KB, switchsim.ECNOff = marking disabled). Empty means {default}.
	ECNThresholds []int `json:"ecn_thresholds,omitempty"`
	// BShareDelays lists BShare delay budgets. Only meaningful under
	// PolicyBShare; empty means {default 200 us}.
	BShareDelays []sim.Time `json:"bshare_delays,omitempty"`
	// TotalBuffers lists buffer sizes in bytes (0 = default 16 MB).
	TotalBuffers []int `json:"total_buffers,omitempty"`
	// DedicatedPerQueue lists per-queue reserves in bytes (0 = derived
	// default).
	DedicatedPerQueue []int `json:"dedicated_per_queue,omitempty"`
}

// Point is one grid entry: the override applied to the base fleet config.
type Point struct {
	// Index is the point's position in the expanded grid; point 0 is always
	// the baseline (zero override).
	Index int `json:"index"`
	// Override is the counterfactual switch configuration.
	Override fleet.SwitchOverride `json:"override"`
	// Label is the override rendered for tables and progress lines.
	Label string `json:"label"`
}

// Baseline is the zero override every sweep compares against: the production
// configuration (DT, alpha 1) the measured fleet ran.
var Baseline = fleet.SwitchOverride{}

// Expand derives the deterministic point grid. The baseline is always point
// 0 (inserted if the grid doesn't produce it); duplicate grid entries
// collapse to their first occurrence; every point is validated against the
// fleet's rack size so an impossible configuration fails here, before any
// rack-hour is simulated.
func (s Spec) Expand() ([]Point, error) {
	norm := s.Fleet.WithDefaults()
	if !s.Fleet.Switch.IsZero() {
		return nil, fmt.Errorf("sweep: the spec's fleet config must not set Switch (the grid owns that axis)")
	}
	if err := norm.Validate(); err != nil {
		return nil, err
	}

	policies := s.Policies
	if len(policies) == 0 {
		policies = []switchsim.Policy{switchsim.PolicyDT}
	}
	alphas := s.Alphas
	if len(alphas) == 0 {
		alphas = []float64{1}
	}
	ecns := orZero(s.ECNThresholds)
	bufs := orZero(s.TotalBuffers)
	deds := orZero(s.DedicatedPerQueue)
	delays := s.BShareDelays
	if len(delays) == 0 {
		delays = []sim.Time{0}
	}

	var overrides []fleet.SwitchOverride
	seen := map[fleet.SwitchOverride]bool{}
	add := func(o fleet.SwitchOverride) {
		o = canonical(o)
		if !seen[o] {
			seen[o] = true
			overrides = append(overrides, o)
		}
	}
	// Baseline first, so point 0 is always the comparison anchor.
	add(Baseline)
	for _, pol := range policies {
		for _, buf := range bufs {
			for _, ded := range deds {
				for _, ecn := range ecns {
					switch pol {
					case switchsim.PolicyDT, switchsim.PolicyABM:
						for _, a := range alphas {
							add(fleet.SwitchOverride{
								Policy: pol, Alpha: a,
								ECNThreshold: ecn, TotalBuffer: buf, DedicatedPerQueue: ded,
							})
						}
					case switchsim.PolicyBShare:
						for _, d := range delays {
							add(fleet.SwitchOverride{
								Policy: pol, BShareDelay: d,
								ECNThreshold: ecn, TotalBuffer: buf, DedicatedPerQueue: ded,
							})
						}
					default:
						// Neither alpha nor the delay budget applies; one
						// point per combo.
						add(fleet.SwitchOverride{
							Policy:       pol,
							ECNThreshold: ecn, TotalBuffer: buf, DedicatedPerQueue: ded,
						})
					}
				}
			}
		}
	}

	pts := make([]Point, len(overrides))
	for i, o := range overrides {
		if err := o.Validate(norm.ServersPerRack); err != nil {
			return nil, fmt.Errorf("sweep: point %d (%s): %w", i, o, err)
		}
		pts[i] = Point{Index: i, Override: o, Label: o.String()}
	}
	return pts, nil
}

// canonical collapses override spellings that configure the identical
// switch: alpha 1 is the DT/ABM default, so {PolicyDT, Alpha: 1} with no
// other knobs IS the baseline and must dedupe with it; knobs a policy
// ignores (alpha outside DT/ABM, the BShare delay outside BShare) are
// cleared so spelling them can't split one configuration into two points.
func canonical(o fleet.SwitchOverride) fleet.SwitchOverride {
	switch o.Policy {
	case switchsim.PolicyDT, switchsim.PolicyABM:
		if o.Alpha == 1 {
			o.Alpha = 0
		}
	default:
		o.Alpha = 0
	}
	if o.Policy != switchsim.PolicyBShare || o.BShareDelay == switchsim.DefaultBShareDelayTarget {
		o.BShareDelay = 0
	}
	return o
}

// orZero substitutes the one-element "default" axis for an empty one.
func orZero(vs []int) []int {
	if len(vs) == 0 {
		return []int{0}
	}
	return vs
}

// normalizeFleet is the manifest form of the spec's fleet config: defaults
// resolved, scheduling-only fields cleared so they never block a resume.
func normalizeFleet(cfg fleet.Config) fleet.Config {
	n := cfg.WithDefaults()
	n.Workers = 0
	return n
}

// defaultKnobDT reports whether o is a DT point that sets nothing but alpha.
// One struct comparison, so a knob added to SwitchOverride narrows every
// default-knob report without being listed here.
func defaultKnobDT(o fleet.SwitchOverride) bool {
	return o == fleet.SwitchOverride{Policy: switchsim.PolicyDT, Alpha: o.Alpha}
}

// DTAlphas returns the distinct alphas of the sweep's default-knob DT points
// in ascending order — the x axis of the loss-vs-alpha report.
func DTAlphas(pts []Point) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, p := range pts {
		o := p.Override
		if !defaultKnobDT(o) {
			continue
		}
		a := o.Alpha
		if a == 0 {
			a = 1
		}
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	sort.Float64s(out)
	return out
}
