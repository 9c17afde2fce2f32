package experiments

import (
	"fmt"
	"sort"

	"repro/internal/fleet"
	"repro/internal/stats"
)

func init() {
	register("tab2", Table2BurstClasses)
	register("fig16", Fig16ContentionLoss)
	register("fig16alt", Fig16AltFirstLoss)
	register("fig17", Fig17Discards)
	register("fig18", Fig18LengthLoss)
	register("fig19", Fig19IncastLoss)
}

// eachBurst streams every burst with its rack's class, in dataset order.
func eachBurst(src Source, fn func(c fleet.Class, b fleet.BurstRec)) error {
	return eachRun(src, func(run *fleet.RunSummary, c fleet.Class) error {
		for _, b := range run.Bursts {
			fn(c, b)
		}
		return nil
	})
}

var classOrder = []fleet.Class{fleet.ClassATypical, fleet.ClassAHigh, fleet.ClassB}

// Table2BurstClasses reproduces Table 2: burst counts, contended fraction,
// and lossy fraction per rack class.
func Table2BurstClasses(src Source) (*Result, error) {
	r := &Result{
		ID:     "tab2",
		Title:  "Bursts per rack class",
		Header: []string{"class", "bursts", "% contended", "% lossy"},
	}
	paper := map[fleet.Class][2]float64{
		fleet.ClassATypical: {70.9, 1.05},
		fleet.ClassAHigh:    {100, 0.36},
		fleet.ClassB:        {96.8, 0.78},
	}
	type counts struct{ bursts, contended, lossy int }
	byClass := map[fleet.Class]*counts{}
	for _, c := range classOrder {
		byClass[c] = &counts{}
	}
	err := eachBurst(src, func(c fleet.Class, b fleet.BurstRec) {
		n := byClass[c]
		if n == nil {
			return
		}
		n.bursts++
		if b.MaxContention >= 2 {
			n.contended++
		}
		if b.Lossy {
			n.lossy++
		}
	})
	if err != nil {
		return nil, err
	}
	var fracLossy = map[fleet.Class]float64{}
	for _, c := range classOrder {
		n := byClass[c]
		if n.bursts == 0 {
			r.AddRow(c.String(), "0", "-", "-")
			continue
		}
		fc := float64(n.contended) / float64(n.bursts)
		fl := float64(n.lossy) / float64(n.bursts)
		fracLossy[c] = fl
		r.AddRow(c.String(), fmt.Sprintf("%d", n.bursts), fmtPct(fc), fmtPct(fl))
		p := paper[c]
		r.Notef("%s paper: %.1f%% contended, %.2f%% lossy; measured: %s contended, %s lossy",
			c, p[0], p[1], fmtPct(fc), fmtPct(fl))
	}
	if fracLossy[fleet.ClassATypical] > 0 && fracLossy[fleet.ClassAHigh] >= 0 {
		r.Notef("key finding check — higher contention need not mean more loss: Typical lossy %s vs High lossy %s (paper: 1.05%% vs 0.36%%, 2.9x)",
			fmtPct(fracLossy[fleet.ClassATypical]), fmtPct(fracLossy[fleet.ClassAHigh]))
	}
	return r, nil
}

// Fig16ContentionLoss reproduces Figure 16: the fraction of lossy bursts per
// maximum contention level, per class.
func Fig16ContentionLoss(src Source) (*Result, error) {
	r := &Result{
		ID:     "fig16",
		Title:  "% of bursts with loss vs max contention level",
		Header: []string{"contention", "RegA-Typical", "RegA-High", "RegB", "n(T/H/B)"},
	}
	grp := map[fleet.Class]*stats.RatioBucketed{}
	for _, c := range classOrder {
		grp[c] = stats.NewRatioBucketed(1)
	}
	maxLevel := 0
	err := eachBurst(src, func(c fleet.Class, b fleet.BurstRec) {
		g := grp[c]
		if g == nil {
			return
		}
		g.Add(float64(b.MaxContention), b.Lossy)
		if int(b.MaxContention) > maxLevel {
			maxLevel = int(b.MaxContention)
		}
	})
	if err != nil {
		return nil, err
	}
	cell := func(c fleet.Class, level int) (string, int) {
		for _, p := range grp[c].Points() {
			if int(p.Lo) == level {
				return fmtPct(p.Ratio), p.N
			}
		}
		return "-", 0
	}
	for level := 1; level <= maxLevel; level++ {
		t, nt := cell(fleet.ClassATypical, level)
		h, nh := cell(fleet.ClassAHigh, level)
		b, nb := cell(fleet.ClassB, level)
		r.AddRow(fmt.Sprintf("%d", level), t, h, b, fmt.Sprintf("%d/%d/%d", nt, nh, nb))
	}
	for _, c := range classOrder {
		r.AddRatioCurve(c.String(), grp[c].Points())
	}
	r.PlotOpts.XLabel = "max contention"
	r.PlotOpts.YLabel = "fraction of bursts with loss"
	r.Notef("paper: loss rises with contention within each class, yet RegA-Typical is lossier than RegA-High at comparable levels")
	return r, nil
}

// Fig16AltFirstLoss checks the paper's methodology note (§8): associating
// each lossy burst with the contention at its *first loss* instead of its
// lifetime maximum should give slightly lower levels but the same trends.
func Fig16AltFirstLoss(src Source) (*Result, error) {
	r := &Result{
		ID:     "fig16alt",
		Title:  "Lossy bursts: max contention vs contention at first loss",
		Header: []string{"class", "lossy bursts", "mean max-contention", "mean at-first-loss"},
	}
	type sums struct {
		n               int
		sumMax, sumCAFL float64
	}
	byClass := map[fleet.Class]*sums{}
	for _, c := range classOrder {
		byClass[c] = &sums{}
	}
	err := eachBurst(src, func(c fleet.Class, b fleet.BurstRec) {
		s := byClass[c]
		if s == nil || !b.Lossy {
			return
		}
		s.n++
		s.sumMax += float64(b.MaxContention)
		s.sumCAFL += float64(b.CAFL)
	})
	if err != nil {
		return nil, err
	}
	for _, c := range classOrder {
		s := byClass[c]
		if s.n == 0 {
			r.AddRow(c.String(), "0", "-", "-")
			continue
		}
		r.AddRow(c.String(), fmt.Sprintf("%d", s.n),
			fmtF(s.sumMax/float64(s.n)), fmtF(s.sumCAFL/float64(s.n)))
	}
	r.Notef("paper: bursts see slightly lower contention at first loss than their lifetime maximum, with similar trends — at-first-loss means should be <= max-contention means")
	return r, nil
}

// Fig17Discards reproduces Figure 17: the CDF across racks of switch
// congestion discards normalized to traffic volume, High vs Typical.
func Fig17Discards(src Source) (*Result, error) {
	perRack := map[fleet.Class]map[int][2]float64{
		fleet.ClassATypical: {},
		fleet.ClassAHigh:    {},
	}
	err := eachRun(src, func(run *fleet.RunSummary, c fleet.Class) error {
		m, ok := perRack[c]
		if !ok {
			return nil
		}
		v := m[run.RackID]
		v[0] += float64(run.Switch.DiscardBytes)
		v[1] += float64(run.Switch.EnqueuedBytes)
		m[run.RackID] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	norm := map[fleet.Class][]float64{}
	for _, c := range []fleet.Class{fleet.ClassATypical, fleet.ClassAHigh} {
		for _, v := range perRack[c] {
			if v[1] > 0 {
				norm[c] = append(norm[c], v[0]/v[1])
			}
		}
	}
	if len(norm[fleet.ClassATypical]) == 0 || len(norm[fleet.ClassAHigh]) == 0 {
		return nil, refusal("missing rack classes")
	}
	cT := stats.NewCDF(norm[fleet.ClassATypical])
	cH := stats.NewCDF(norm[fleet.ClassAHigh])
	r := &Result{
		ID:     "fig17",
		Title:  "Normalized switch congestion discards per rack (CDF)",
		Header: []string{"percentile", "RegA-Typical", "RegA-High"},
	}
	r.addQuantiles([]float64{25, 50, 75, 90, 99}, fmtF, cT, cH)
	r.AddCDF("RegA-Typical", cT)
	r.AddCDF("RegA-High", cH)
	r.PlotOpts.XLabel = "discard bytes / ingress bytes"
	r.PlotOpts.YLabel = "fraction of racks"
	r.Notef("paper: RegA-High sees fewer discards per byte than RegA-Typical; measured means: Typical %.3g vs High %.3g",
		stats.Mean(norm[fleet.ClassATypical]), stats.Mean(norm[fleet.ClassAHigh]))
	return r, nil
}

// Fig18LengthLoss reproduces Figure 18: lossy-burst fraction versus burst
// length, contended vs non-contended, in RegA-Typical racks.
func Fig18LengthLoss(src Source) (*Result, error) {
	return lossBy(src, &Result{
		ID:     "fig18",
		Title:  "% of bursts with loss vs burst length (ms), RegA-Typical",
		Header: []string{"length (ms)", "contended", "n", "non-contended", "n"},
	}, 2, func(b fleet.BurstRec) float64 { return float64(b.Len) }, "burst length (ms)",
		"paper: loss low for tiny bursts, rises sharply with length, then stabilizes or falls once congestion control can react (~8ms); contended bursts lossier beyond ~8ms")
}

// Fig19IncastLoss reproduces Figure 19: lossy-burst fraction versus the
// burst's average connection count, contended vs non-contended,
// RegA-Typical.
func Fig19IncastLoss(src Source) (*Result, error) {
	return lossBy(src, &Result{
		ID:     "fig19",
		Title:  "% of bursts with loss vs avg connections (incast), RegA-Typical",
		Header: []string{"connections", "contended", "n", "non-contended", "n"},
	}, 10, func(b fleet.BurstRec) float64 { return float64(b.AvgConns) }, "avg connections",
		"paper: loss increases with connection count then stabilizes; contended bursts lose 3-4x more than non-contended at high incast")
}

// lossBy fills r with the lossy-burst fraction of RegA-Typical bursts in
// bins of width over x, contended beside non-contended: one row per bin
// either side has, and one curve per side.
func lossBy(src Source, r *Result, width float64, x func(fleet.BurstRec) float64, xlabel, note string) (*Result, error) {
	con := stats.NewRatioBucketed(width)
	non := stats.NewRatioBucketed(width)
	err := eachBurst(src, func(c fleet.Class, b fleet.BurstRec) {
		if c != fleet.ClassATypical {
			return
		}
		if b.MaxContention >= 2 {
			con.Add(x(b), b.Lossy)
		} else {
			non.Add(x(b), b.Lossy)
		}
	})
	if err != nil {
		return nil, err
	}
	pts := map[float64][4]string{}
	var keys []float64
	add := func(ps []stats.RatioPoint, idx int) {
		for _, p := range ps {
			v, ok := pts[p.Lo]
			if !ok {
				keys = append(keys, p.Lo)
				v = [4]string{"-", "0", "-", "0"}
			}
			v[idx] = fmtPct(p.Ratio)
			v[idx+1] = fmt.Sprintf("%d", p.N)
			pts[p.Lo] = v
		}
	}
	add(con.Points(), 0)
	add(non.Points(), 2)
	sort.Float64s(keys)
	for _, k := range keys {
		v := pts[k]
		r.AddRow(fmt.Sprintf("%.0f-%.0f", k, k+width), v[0], v[1], v[2], v[3])
	}
	r.AddRatioCurve("contended", con.Points())
	r.AddRatioCurve("non-contended", non.Points())
	r.PlotOpts.XLabel = xlabel
	r.PlotOpts.YLabel = "fraction of bursts with loss"
	r.Notes = append(r.Notes, note)
	return r, nil
}
