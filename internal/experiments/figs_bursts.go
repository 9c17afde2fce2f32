package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/fleet"
	"repro/internal/stats"
)

func init() {
	register("tab1", Table1Dataset)
	register("sec6", Sec6Utilization)
	register("fig6", Fig06BurstFreq)
	register("fig7", Fig07BurstLen)
	register("fig8", Fig08Connections)
}

// eachBurstyServerRun streams RegA's bursty server runs, §6's population.
func eachBurstyServerRun(src Source, fn func(s *analysis.ServerRun)) error {
	return eachRun(src, func(run *fleet.RunSummary, _ fleet.Class) error {
		if run.Region != fleet.RegA {
			return nil
		}
		for i := range run.ServerRuns {
			if run.ServerRuns[i].Bursty {
				fn(&run.ServerRuns[i])
			}
		}
		return nil
	})
}

// Sec6Utilization reproduces the quantitative claims of §6's prose: server
// links are largely idle (median bursty-run average utilization 6.4%, p95
// <45%), utilization outside bursts is low (median 5.5%) and high inside
// (median 65.5%), and about half the ingress bytes travel in bursts.
func Sec6Utilization(src Source) (*Result, error) {
	var avg, inside, outside []float64
	var burstBytes, totalBytes float64
	err := eachBurstyServerRun(src, func(s *analysis.ServerRun) {
		avg = append(avg, s.AvgUtil)
		inside = append(inside, s.AvgUtilInside)
		outside = append(outside, s.AvgUtilOutside)
		burstBytes += s.BurstBytes
		totalBytes += s.InBytes
	})
	if err != nil {
		return nil, err
	}
	if len(avg) == 0 {
		return nil, refusal("no bursty server runs")
	}
	cAvg, cIn, cOut := stats.NewCDF(avg), stats.NewCDF(inside), stats.NewCDF(outside)
	r := &Result{
		ID:     "sec6",
		Title:  "Server-link utilization of bursty server runs (fractions of line rate)",
		Header: []string{"percentile", "run average", "inside bursts", "outside bursts"},
	}
	r.addQuantiles([]float64{25, 50, 75, 95}, fmtPct, cAvg, cIn, cOut)
	r.Notef("paper: median run average 6.4%% (p95 <45%%), inside bursts 65.5%%, outside 5.5%%; measured medians: %s / %s / %s",
		fmtPct(cAvg.Quantile(50)), fmtPct(cIn.Quantile(50)), fmtPct(cOut.Quantile(50)))
	r.Notef("paper: 49.7%% of server-link ingress transferred in bursts; measured: %s",
		fmtPct(burstBytes/totalBytes))
	return r, nil
}

// Table1Dataset reproduces Table 1: the dataset summary per region.
func Table1Dataset(src Source) (*Result, error) {
	r := &Result{
		ID:     "tab1",
		Title:  "Dataset summary (1 simulated day)",
		Header: []string{"region", "runs", "server runs", "bursty server runs", "bursts", "racks"},
	}
	type regionAcc struct {
		runs, serverRuns, burstyRuns, bursts int
		rackSet                              map[int]bool
	}
	acc := map[string]*regionAcc{}
	skipped, err := src.EachRun(func(run *fleet.RunSummary, _ fleet.Class) error {
		a := acc[run.Region]
		if a == nil {
			a = &regionAcc{rackSet: map[int]bool{}}
			acc[run.Region] = a
		}
		a.runs++
		a.rackSet[run.RackID] = true
		a.serverRuns += len(run.ServerRuns)
		for _, s := range run.ServerRuns {
			if s.Bursty {
				a.burstyRuns++
			}
		}
		a.bursts += len(run.Bursts)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, region := range []string{fleet.RegA, fleet.RegB} {
		a := acc[region]
		if a == nil {
			a = &regionAcc{rackSet: map[int]bool{}}
		}
		r.AddRow(region,
			fmt.Sprintf("%d", a.runs),
			fmt.Sprintf("%d", a.serverRuns),
			fmt.Sprintf("%d", a.burstyRuns),
			fmt.Sprintf("%d", a.bursts),
			fmt.Sprintf("%d", len(a.rackSet)))
		if a.serverRuns > 0 {
			r.Notef("%s: %s of server runs bursty (paper RegA: 34%%); scaled deployment — paper has 22.4K runs over 1000s of racks",
				region, fmtPct(float64(a.burstyRuns)/float64(a.serverRuns)))
		}
	}
	if skipped > 0 {
		r.Notef("degraded dataset: %d runs skipped (rack metadata missing)", skipped)
	}
	return r, nil
}

// Fig06BurstFreq reproduces Figure 6: the CDF of bursts per second across
// bursty server runs in RegA.
func Fig06BurstFreq(src Source) (*Result, error) {
	var freqs []float64
	err := eachBurstyServerRun(src, func(s *analysis.ServerRun) {
		freqs = append(freqs, s.BurstsPerSec)
	})
	if err != nil {
		return nil, err
	}
	if len(freqs) == 0 {
		return nil, refusal("no bursty server runs")
	}
	cdf := stats.NewCDF(freqs)
	r := &Result{
		ID:     "fig6",
		Title:  "Frequency of bursts per bursty server run (CDF)",
		Header: []string{"percentile", "bursts/sec"},
	}
	r.addQuantiles([]float64{10, 25, 50, 75, 90, 95, 99}, fmtF, cdf)
	r.AddCDF("server runs", cdf)
	r.PlotOpts.XLabel = "bursts/sec"
	r.PlotOpts.YLabel = "fraction of bursty server runs"
	r.Notef("paper: median 7.5 bursts/s, p90 39.8; measured: median %s, p90 %s (n=%d)",
		fmtF(cdf.Quantile(50)), fmtF(cdf.Quantile(90)), cdf.N())
	return r, nil
}

// Fig07BurstLen reproduces Figure 7: the burst-length distribution for all,
// contended, and non-contended bursts in RegA.
func Fig07BurstLen(src Source) (*Result, error) {
	var all, contended, non []float64
	err := eachBurst(src, func(c fleet.Class, b fleet.BurstRec) {
		if c == fleet.ClassB { // every other class is a RegA rack's
			return
		}
		l := float64(b.Len)
		all = append(all, l)
		if b.MaxContention >= 2 {
			contended = append(contended, l)
		} else {
			non = append(non, l)
		}
	})
	if err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, refusal("no bursts")
	}
	cAll, cCon, cNon := stats.NewCDF(all), stats.NewCDF(contended), stats.NewCDF(non)
	r := &Result{
		ID:     "fig7",
		Title:  "Burst length distribution (ms)",
		Header: []string{"percentile", "all", "contended", "non-contended"},
	}
	r.addQuantiles([]float64{25, 50, 75, 90, 95}, fmtF, cAll, cCon, cNon)
	r.AddCDF("all", cAll)
	r.AddCDF("contended", cCon)
	r.AddCDF("non-contended", cNon)
	r.PlotOpts.XLabel = "burst length (ms)"
	r.PlotOpts.YLabel = "fraction of bursts"
	fracContended := float64(len(contended)) / float64(len(all))
	r.Notef("paper: median 2ms, p90 8ms; measured: median %s, p90 %s",
		fmtF(cAll.Quantile(50)), fmtF(cAll.Quantile(90)))
	r.Notef("paper: 84.8%% of RegA bursts contended, 88%% of non-contended <3ms; measured: %s contended, %s of non-contended <3ms",
		fmtPct(fracContended), fmtPct(cNon.At(2.999)))
	return r, nil
}

// Fig08Connections reproduces Figure 8: connection counts inside versus
// outside bursts across bursty server runs.
func Fig08Connections(src Source) (*Result, error) {
	var inside, outside []float64
	err := eachBurstyServerRun(src, func(s *analysis.ServerRun) {
		inside = append(inside, s.AvgConnsInside)
		outside = append(outside, s.AvgConnsOutside)
	})
	if err != nil {
		return nil, err
	}
	if len(inside) == 0 {
		return nil, refusal("no bursty server runs")
	}
	cIn, cOut := stats.NewCDF(inside), stats.NewCDF(outside)
	r := &Result{
		ID:     "fig8",
		Title:  "Average connections per sample, inside vs outside bursts (CDF)",
		Header: []string{"percentile", "inside-burst", "outside-burst"},
	}
	r.addQuantiles([]float64{10, 25, 50, 75, 90}, fmtF, cIn, cOut)
	r.AddCDF("inside-burst", cIn)
	r.AddCDF("outside-burst", cOut)
	r.PlotOpts.XLabel = "avg connections"
	r.PlotOpts.YLabel = "fraction of server runs"
	// Median per-run ratio.
	var ratios []float64
	for i := range inside {
		if outside[i] > 0 {
			ratios = append(ratios, inside[i]/outside[i])
		}
	}
	r.Notef("paper: median 2.7x more connections inside bursts; measured median ratio: %s (n=%d)",
		fmtF(stats.Median(ratios)), len(ratios))
	return r, nil
}
