package sweep

import (
	"fmt"
	"sort"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/switchsim"
)

// Report renders a completed sweep as experiment results: the full what-if
// grid with per-point deltas against the baseline, the loss-vs-alpha view
// per contention class, and the sharing-policy comparison per contention
// class — the paper's §9 question ("would a different sharing configuration
// have helped this rack class?") answered from simulation.
func Report(res *Result) []*experiments.Result {
	return []*experiments.Result{gridResult(res), alphaResult(res), policyResult(res)}
}

// gridResult is the per-point table: every counterfactual next to the
// baseline with loss, ECN, burst, and peak-occupancy deltas.
func gridResult(res *Result) *experiments.Result {
	base := res.Baseline().Total
	r := &experiments.Result{
		ID:    "whatif-grid",
		Title: "What-if grid: buffer-sharing counterfactuals vs baseline (§9)",
		Header: []string{"point", "config", "loss%", "Δloss(pp)", "ecn-mark%",
			"lossy-burst%", "trunc-burst%", "peak-queue(KB)"},
	}
	for i := range res.Points {
		p := &res.Points[i]
		t := p.Total
		r.AddRow(
			fmt.Sprintf("%d", p.Index),
			p.Label,
			fmt.Sprintf("%.3f", t.LossPct()),
			fmt.Sprintf("%+.3f", t.LossPct()-base.LossPct()),
			fmt.Sprintf("%.2f", t.ECNPct()),
			fmt.Sprintf("%.1f", t.LossyBurstPct()),
			fmt.Sprintf("%.1f", t.TruncatedBurstPct()),
			fmt.Sprintf("%d", t.PeakQueueBytes>>10),
		)
	}
	r.Notef("baseline is point 0 (%s): the production configuration the measured fleet ran", res.Baseline().Label)
	r.Notef("peak-queue compares burst absorption headroom; under overload complete-sharing ≥ DT ≥ static-partition")
	if f := res.Points[0].Total.FailedRuns; f > 0 {
		r.Notef("%d rack-hour(s) failed to simulate per point and are excluded from the statistics", f)
	}
	return r
}

// alphaResult is the loss-vs-alpha table per baseline contention class: DT
// points with default buffer/ECN, one row per alpha, one column pair per
// class.
func alphaResult(res *Result) *experiments.Result {
	classes := classNames(res)
	r := &experiments.Result{
		ID:     "whatif-alpha",
		Title:  "Loss vs DT alpha per contention class (§9)",
		Header: classHeader(classes, "alpha"),
	}

	var pts []Point
	for i := range res.Points {
		pts = append(pts, res.Points[i].Point)
	}
	for _, a := range DTAlphas(pts) {
		p := findDTPoint(res, a)
		if p == nil {
			continue
		}
		r.AddRow(classCells([]string{fmt.Sprintf("%g", a)}, classes, p, res.Baseline())...)
	}
	r.Notef("classes are fixed by the baseline's busy-hour contention, so every alpha compares the same racks")
	r.Notef("paper §9: high-contention racks lose DT share to neighbors — the best alpha depends on the contention regime")
	return r
}

// policyResult is the policy-zoo table: one row per sharing discipline swept
// (at default knobs), the baseline standing in for DT, one column pair per
// baseline contention class — §9's "which discipline suits which regime".
func policyResult(res *Result) *experiments.Result {
	classes := classNames(res)
	r := &experiments.Result{
		ID:     "whatif-policy",
		Title:  "Loss per sharing policy per contention class (§9)",
		Header: classHeader(classes, "policy", "loss%", "Δloss(pp)"),
	}

	base := res.Baseline()
	for _, pol := range switchsim.KnownPolicies() {
		p := findPolicyPoint(res, pol)
		if p == nil {
			continue
		}
		r.AddRow(classCells([]string{
			pol.String(),
			fmt.Sprintf("%.3f", p.Total.LossPct()),
			fmt.Sprintf("%+.3f", p.Total.LossPct()-base.Total.LossPct()),
		}, classes, p, base)...)
	}
	r.Notef("every policy runs at its default knobs (alpha 1, 200µs BShare budget); the baseline row is DT")
	r.Notef("bshare and abm points force full packet fidelity — the fluid model does not represent their admission")
	return r
}

// classHeader is head followed by a loss and a Δ column per class.
func classHeader(classes []string, head ...string) []string {
	for _, c := range classes {
		head = append(head, c+" loss%", c+" Δ(pp)")
	}
	return head
}

// classCells appends to row p's loss per class and its difference from
// base's, in the columns classHeader names.
func classCells(row, classes []string, p, base *PointResult) []string {
	for _, c := range classes {
		loss := p.Classes[c].LossPct()
		row = append(row, fmt.Sprintf("%.3f", loss), fmt.Sprintf("%+.3f", loss-base.Classes[c].LossPct()))
	}
	return row
}

// findPolicyPoint locates the default-knob point for a policy; the baseline
// stands in for DT.
func findPolicyPoint(res *Result, pol switchsim.Policy) *PointResult {
	if pol == switchsim.PolicyDT {
		return res.Baseline()
	}
	for i := range res.Points {
		if res.Points[i].Override == (fleet.SwitchOverride{Policy: pol}) {
			return &res.Points[i]
		}
	}
	return nil
}

// classNames lists the classes seen in the baseline, in fleet.Class order.
func classNames(res *Result) []string {
	order := map[string]int{
		fleet.ClassATypical.String(): 0,
		fleet.ClassAHigh.String():    1,
		fleet.ClassB.String():        2,
	}
	var out []string
	for c := range res.Baseline().Classes {
		out = append(out, c)
	}
	sort.Slice(out, func(a, b int) bool { return order[out[a]] < order[out[b]] })
	return out
}

// findDTPoint locates the default-knob DT point with the given alpha; the
// baseline stands in for alpha 1.
func findDTPoint(res *Result, alpha float64) *PointResult {
	for i := range res.Points {
		o := res.Points[i].Override
		if !defaultKnobDT(o) {
			continue
		}
		a := o.Alpha
		if a == 0 {
			a = 1
		}
		if a == alpha {
			return &res.Points[i]
		}
	}
	return nil
}
