package experiments

import (
	"fmt"
	"sort"

	"repro/internal/fleet"
	"repro/internal/stats"
)

func init() {
	register("fig9", Fig09ContentionCDF)
	register("fig10", Fig10TaskDiversity)
	register("fig11", Fig11DominantTask)
	register("fig12", Fig12DailyVariation)
	register("fig13", Fig13Diurnal)
	register("fig14", Fig14VolumeCorr)
	register("fig15", Fig15RunVariation)
}

// rackIDs returns the rack ids of a region present in the metadata.
func rackIDs(src Source, region string) []int {
	var ids []int
	for _, m := range src.RackMetas() {
		if m.Region == region {
			ids = append(ids, m.ID)
		}
	}
	sort.Ints(ids)
	return ids
}

// Fig09ContentionCDF reproduces Figure 9: the CDF of busy-hour average
// contention across racks, per region.
func Fig09ContentionCDF(src Source) (*Result, error) {
	r := &Result{
		ID:     "fig9",
		Title:  "Average contention across racks, busy hour (CDF)",
		Header: []string{"percentile", "RegA", "RegB"},
	}
	// Each rack's busy-hour scalar was measured once, at generation.
	metas := src.RackMetas()
	byRegion := map[string]*stats.CDF{}
	for _, region := range []string{fleet.RegA, fleet.RegB} {
		var xs []float64
		for i := range metas {
			if metas[i].Region == region {
				xs = append(xs, metas[i].BusyAvgContention)
			}
		}
		if len(xs) == 0 {
			return nil, refusal("no busy-hour runs in " + region)
		}
		byRegion[region] = stats.NewCDF(xs)
	}
	r.addQuantiles([]float64{10, 25, 50, 75, 80, 90, 95}, fmtF, byRegion[fleet.RegA], byRegion[fleet.RegB])
	r.AddCDF("RegA", byRegion[fleet.RegA])
	r.AddCDF("RegB", byRegion[fleet.RegB])
	r.PlotOpts.XLabel = "avg contention"
	r.PlotOpts.YLabel = "fraction of racks"
	a := byRegion[fleet.RegA]
	gap := a.Quantile(90) / (a.Quantile(75) + 1e-9)
	r.Notef("paper: RegA bimodal — 75%% of racks below 2.2, top 20%% above 7.5 (3.4x); measured: p75 %s, p90 %s (ratio %s)",
		fmtF(a.Quantile(75)), fmtF(a.Quantile(90)), fmtF(gap))
	r.Notef("paper: RegB spread fairly uniform and higher than RegA; measured RegB median %s vs RegA median %s",
		fmtF(byRegion[fleet.RegB].Quantile(50)), fmtF(a.Quantile(50)))
	return r, nil
}

// Fig10TaskDiversity reproduces Figure 10: distinct tasks per rack by class.
func Fig10TaskDiversity(src Source) (*Result, error) {
	xs := map[fleet.Class][]float64{}
	for _, m := range src.RackMetas() {
		xs[m.Class] = append(xs[m.Class], float64(m.DistinctTasks))
	}
	r := &Result{
		ID:     "fig10",
		Title:  "Distinct tasks per rack (CDF)",
		Header: []string{"percentile", "RegA-Typical", "RegA-High", "RegB"},
	}
	cT := stats.NewCDF(xs[fleet.ClassATypical])
	cH := stats.NewCDF(xs[fleet.ClassAHigh])
	cB := stats.NewCDF(xs[fleet.ClassB])
	r.addQuantiles([]float64{10, 25, 50, 75, 90}, fmtF, cT, cH, cB)
	r.Notef("paper: median tasks 14 (Typical), 8 (High), 15 (RegB) on ~92-server racks; measured (on %d-server racks): %s, %s, %s",
		src.Config().ServersPerRack, fmtF(cT.Quantile(50)), fmtF(cH.Quantile(50)), fmtF(cB.Quantile(50)))
	return r, nil
}

// Fig11DominantTask reproduces Figure 11: dominant-task server share versus
// contention-sorted rack id, per region.
func Fig11DominantTask(src Source) (*Result, error) {
	r := &Result{
		ID:     "fig11",
		Title:  "Dominant task share across contention-sorted racks",
		Header: []string{"region", "rack rank", "avg contention", "dominant task share"},
	}
	metas := src.RackMetas()
	for _, region := range []string{fleet.RegA, fleet.RegB} {
		type rk struct {
			cont  float64
			share float64
		}
		var rows []rk
		var conts, shares []float64
		for i := range metas {
			m := &metas[i]
			if m.Region != region {
				continue
			}
			rows = append(rows, rk{cont: m.BusyAvgContention, share: m.DominantShare})
			conts = append(conts, m.BusyAvgContention)
			shares = append(shares, m.DominantShare)
		}
		if len(rows) == 0 {
			return nil, refusal("no racks in " + region)
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a].cont < rows[b].cont })
		// Render a decile summary of the sorted curve.
		for d := 0; d < 10; d++ {
			i := d * len(rows) / 10
			r.AddRow(region, fmt.Sprintf("%d%%", d*10), fmtF(rows[i].cont), fmtPct(rows[i].share))
		}
		r.Notef("%s: Pearson(contention, dominant share) = %s (paper: high-contention racks run the dominant task on 60-100%% of servers)",
			region, fmtF(stats.Pearson(conts, shares)))
	}
	return r, nil
}

// Fig12DailyVariation reproduces Figure 12: per-rack mean/min/max of the
// average contention across the day's runs, sorted by mean.
func Fig12DailyVariation(src Source) (*Result, error) {
	r := &Result{
		ID:     "fig12",
		Title:  "Per-rack contention across the day (mean and min-max range)",
		Header: []string{"region", "rack rank", "mean", "min", "max"},
	}
	// One pass collects each rack's day of contention scalars.
	vals := map[string][]float64{}
	key := func(region string, id int) string { return fmt.Sprintf("%s/%d", region, id) }
	err := eachRun(src, func(run *fleet.RunSummary, _ fleet.Class) error {
		k := key(run.Region, run.RackID)
		vals[k] = append(vals[k], run.AvgContention)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, region := range []string{fleet.RegA, fleet.RegB} {
		type rackDay struct{ mean, min, max float64 }
		var days []rackDay
		for _, id := range rackIDs(src, region) {
			v := vals[key(region, id)]
			if len(v) == 0 {
				continue
			}
			b := stats.Summarize(v)
			days = append(days, rackDay{mean: b.Mean, min: b.Min, max: b.Max})
		}
		if len(days) == 0 {
			return nil, refusal("no runs in " + region)
		}
		sort.Slice(days, func(a, b int) bool { return days[a].mean < days[b].mean })
		for d := 0; d < 10; d++ {
			i := d * len(days) / 10
			r.AddRow(region, fmt.Sprintf("%d%%", d*10),
				fmtF(days[i].mean), fmtF(days[i].min), fmtF(days[i].max))
		}
		// Persistence check: variation of low vs high racks.
		var lowVar, highVar []float64
		for i, dday := range days {
			v := dday.max - dday.min
			if i < len(days)*8/10 {
				lowVar = append(lowVar, v)
			} else {
				highVar = append(highVar, v)
			}
		}
		r.Notef("%s: mean min-max range %.2f (bottom 80%% of racks) vs %.2f (top 20%%) — paper RegA: 0.8 vs 5.3, classes well separated",
			region, stats.Mean(lowVar), stats.Mean(highVar))
	}
	return r, nil
}

// Fig13Diurnal reproduces Figure 13: box plots of run average contention per
// hour for RegA-High and RegB.
func Fig13Diurnal(src Source) (*Result, error) {
	r := &Result{
		ID:     "fig13",
		Title:  "Diurnal contention (per-hour box of run average contention)",
		Header: []string{"class", "hour", "p25", "median", "p75", "p90"},
	}
	byClassHour := map[fleet.Class]map[int][]float64{}
	err := eachRun(src, func(run *fleet.RunSummary, c fleet.Class) error {
		byHour := byClassHour[c]
		if byHour == nil {
			byHour = map[int][]float64{}
			byClassHour[c] = byHour
		}
		byHour[run.Hour] = append(byHour[run.Hour], run.AvgContention)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, class := range []fleet.Class{fleet.ClassAHigh, fleet.ClassB} {
		byHour := byClassHour[class]
		var hours []int
		for h := range byHour {
			hours = append(hours, h)
		}
		sort.Ints(hours)
		var peakVals, offVals []float64
		for _, h := range hours {
			b := stats.Summarize(byHour[h])
			r.AddRow(class.String(), fmt.Sprintf("%02d", h),
				fmtF(b.P25), fmtF(b.Median), fmtF(b.P75), fmtF(b.P90))
			if h >= 4 && h <= 10 {
				peakVals = append(peakVals, byHour[h]...)
			} else {
				offVals = append(offVals, byHour[h]...)
			}
		}
		if len(peakVals) > 0 && len(offVals) > 0 {
			inc := stats.Mean(peakVals)/stats.Mean(offVals) - 1
			r.Notef("%s: hours 4-10 mean contention %s above other hours (paper RegA-High: 27.6%%)",
				class, fmtPct(inc))
		}
	}
	return r, nil
}

// Fig14VolumeCorr reproduces Figure 14: run average contention bucketed by
// the rack's per-minute ingress volume. Every run participates, including
// failed collections (their zero volume and contention are part of the
// paper's counter view).
func Fig14VolumeCorr(src Source) (*Result, error) {
	const bucketGB = 4.0
	b := stats.NewBucketed(bucketGB)
	var vols, conts []float64
	err := eachRun(src, func(run *fleet.RunSummary, _ fleet.Class) error {
		volGB := float64(run.IngressPerMin) / 1e9
		b.Add(volGB, run.AvgContention)
		vols = append(vols, volGB)
		conts = append(conts, run.AvgContention)
		return nil
	})
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:     "fig14",
		Title:  "Average contention vs 1-minute rack ingress volume",
		Header: []string{"ingress GB/min", "runs", "p25", "median", "p75"},
	}
	for _, s := range b.Summaries() {
		r.AddRow(fmt.Sprintf("%.0f-%.0f", s.Lo, s.Hi),
			fmt.Sprintf("%d", s.Box.N), fmtF(s.Box.P25), fmtF(s.Box.Median), fmtF(s.Box.P75))
	}
	r.Notef("paper: ingress volume clearly correlates with contention; measured Pearson = %s",
		fmtF(stats.Pearson(vols, conts)))
	return r, nil
}

// Fig15RunVariation reproduces Figure 15: per-run min and p90 contention,
// and the resulting drop in per-queue buffer share.
func Fig15RunVariation(src Source) (*Result, error) {
	var mins, p90s, drops []float64
	excluded, total := 0, 0
	err := eachRun(src, func(run *fleet.RunSummary, _ fleet.Class) error {
		if run.Region != fleet.RegA {
			return nil
		}
		total++
		if !run.HasActive || run.P90Contention == 0 {
			excluded++
			return nil
		}
		mins = append(mins, float64(run.MinActive))
		p90s = append(p90s, run.P90Contention)
		if run.ShareDropOK {
			drops = append(drops, run.ShareDrop)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(drops) == 0 {
		return nil, refusal("no runs with buffer-share drops")
	}
	cMin, cP90, cDrop := stats.NewCDF(mins), stats.NewCDF(p90s), stats.NewCDF(drops)
	r := &Result{
		ID:     "fig15",
		Title:  "Within-run contention variation and per-queue buffer share drop",
		Header: []string{"percentile", "min contention", "p90 contention", "share drop"},
	}
	for _, p := range []float64{25, 50, 75, 85, 95} {
		r.AddRow(fmt.Sprintf("p%.0f", p),
			fmtF(cMin.Quantile(p)), fmtF(cP90.Quantile(p)), fmtPct(cDrop.Quantile(p)))
	}
	r.AddCDF("min contention", cMin)
	r.AddCDF("p90 contention", cP90)
	r.PlotOpts.XLabel = "contention"
	r.PlotOpts.YLabel = "fraction of runs"
	over70 := 1 - cDrop.At(0.699999)
	r.Notef("paper: median buffer share drop 33.3%%, >=70%% for 15%% of runs, 6.2%% of runs excluded (p90 contention 0); measured: median %s, %s of runs >=70%%, %s excluded",
		fmtPct(cDrop.Quantile(50)), fmtPct(over70), fmtPct(float64(excluded)/float64(total)))
	return r, nil
}
