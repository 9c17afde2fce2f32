// Command dsinspect browses the pipeline's result stores: fleet datasets
// produced by cmd/fleetgen (per-rack summaries with measured classification
// and per-rack drill-down) and sweep result directories produced by
// cmd/sweep (per-point completion and the sealed result digest).
//
// -data accepts a sharded dataset directory (runs stream shard by shard) or a
// sweep result directory. An incomplete dataset prints its shard status
// instead of the rack table; an incomplete sweep prints its point status.
//
// Usage:
//
//	dsinspect -data fleet.ds                 # rack table
//	dsinspect -data fleet.ds -rack RegA/3    # one rack's runs
//	dsinspect -data fleet.ds -digest         # canonical digest, for scripts
//	dsinspect -data sweepdir                 # sweep point status
//	dsinspect -data sweepdir -digest         # sealed ResultDigest
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/stats"
	"repro/internal/sweep"
)

func main() {
	data := flag.String("data", "fleet.ds", "dataset or sweep result directory")
	rack := flag.String("rack", "", "drill into one rack, e.g. RegA/3")
	top := flag.Int("top", 0, "show only the N highest-contention racks")
	digest := flag.Bool("digest", false, "print the canonical dataset digest and exit (for byte-identity checks)")
	flag.Parse()

	if sweep.IsDir(*data) {
		sweepStatus(*data, *digest)
		return
	}
	src, err := dataset.Open(*data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsinspect:", err)
		os.Exit(1)
	}
	if *digest {
		printDigest(src)
		return
	}
	if !src.Complete() {
		// Nothing coherent to analyze yet: report the generation instead.
		shardStatus(src, *data)
		return
	}
	if *rack != "" {
		parts := strings.SplitN(*rack, "/", 2)
		if len(parts) != 2 {
			fmt.Fprintln(os.Stderr, "dsinspect: -rack wants REGION/ID")
			os.Exit(1)
		}
		id, err := strconv.Atoi(parts[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsinspect: bad rack id:", err)
			os.Exit(1)
		}
		drill(src, parts[0], id)
		return
	}
	overview(src, *top)
}

// printDigest emits the canonical dataset digest — the value distributed and
// single-process generations are compared on — and nothing else, so scripts
// can capture it.
func printDigest(r *dataset.Reader) {
	if !r.Complete() {
		done, total := r.Progress()
		fmt.Fprintf(os.Stderr, "dsinspect: dataset incomplete (%d/%d shards); no digest\n", done, total)
		os.Exit(1)
	}
	ds, err := r.Dataset()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsinspect:", err)
		os.Exit(1)
	}
	d, err := ds.Digest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsinspect:", err)
		os.Exit(1)
	}
	fmt.Println(d)
}

// sweepStatus reports a sweep result directory: the sealed digest (for
// scripts comparing two sweeps), or the per-point completion table.
func sweepStatus(dir string, digestOnly bool) {
	man, err := sweep.Inspect(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsinspect:", err)
		os.Exit(1)
	}
	done, total := man.Progress()
	if digestOnly {
		if !man.Complete {
			fmt.Fprintf(os.Stderr, "dsinspect: sweep incomplete (%d/%d points); no digest\n", done, total)
			os.Exit(1)
		}
		fmt.Println(man.ResultDigest)
		return
	}
	fmt.Printf("sweep %s: %q, %d/%d points (%s)\n", dir, man.Name, done, total, man.Fleet.Describe())
	if man.Complete {
		fmt.Printf("result digest: %s\n", man.ResultDigest)
	} else {
		fmt.Printf("resume with: sweep -o %s <same flags>\n", dir)
	}
	fmt.Println()
	fmt.Printf("%-4s %-28s %-9s %s\n", "idx", "label", "state", "digest")
	for _, p := range man.Points {
		state, dg := "pending", "-"
		if p.Complete {
			state = "complete"
			if len(p.Digest) >= 12 {
				dg = p.Digest[:12]
			} else {
				dg = p.Digest
			}
		}
		fmt.Printf("%-4d %-28s %-9s %s\n", p.Index, p.Label, state, dg)
	}
}

// shardStatus reports an in-progress generation shard by shard.
func shardStatus(r *dataset.Reader, dir string) {
	done, total := r.Progress()
	fmt.Printf("dataset %s: generation incomplete — %d/%d shards (%s)\n", dir, done, total, r.Config().Describe())
	fmt.Printf("resume with: fleetgen -o %s <same flags>\n\n", dir)
	fmt.Printf("%-8s %-6s %-9s %6s %10s\n", "region", "id", "state", "runs", "collected")
	for _, s := range r.Shards() {
		state := "pending"
		runs, collected := "-", "-"
		if s.Complete {
			state = "complete"
			runs = fmt.Sprintf("%d", s.Runs)
			collected = fmt.Sprintf("%d", s.Collected)
		}
		fmt.Printf("%-8s %-6d %-9s %6s %10s\n", s.Region, s.ID, state, runs, collected)
	}
}

func overview(src *dataset.Reader, top int) {
	// One streaming pass accumulates the per-rack burst counters, so a
	// sharded dataset never needs the whole fleet in memory.
	type burstAcc struct{ bursts, lossy int }
	acc := map[string]*burstAcc{}
	key := func(region string, id int) string { return fmt.Sprintf("%s/%d", region, id) }
	totalRuns := 0
	skipped, err := src.EachRun(func(r *fleet.RunSummary, _ fleet.Class) error {
		totalRuns++
		k := key(r.Region, r.RackID)
		a := acc[k]
		if a == nil {
			a = &burstAcc{}
			acc[k] = a
		}
		a.bursts += len(r.Bursts)
		for _, b := range r.Bursts {
			if b.Lossy {
				a.lossy++
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsinspect:", err)
		os.Exit(1)
	}
	cfg := src.Config()
	metas := src.RackMetas()
	fmt.Printf("dataset: %d racks, %d runs (%s), hours %v\n",
		len(metas), totalRuns+skipped, cfg.Describe(), cfg.Hours)
	if skipped > 0 {
		fmt.Printf("warning: %d runs skipped (rack metadata missing — degraded dataset)\n", skipped)
	}
	fmt.Println()
	racks := append([]fleet.RackMeta(nil), metas...)
	sort.Slice(racks, func(a, b int) bool {
		return racks[a].BusyAvgContention > racks[b].BusyAvgContention
	})
	if top > 0 && top < len(racks) {
		racks = racks[:top]
	}
	fmt.Printf("%-8s %-4s %-13s %9s %6s %9s %8s %8s\n",
		"region", "id", "class", "busy-cont", "tasks", "dom-share", "bursts", "lossy")
	for _, m := range racks {
		a := acc[key(m.Region, m.ID)]
		if a == nil {
			a = &burstAcc{}
		}
		lossPct := "-"
		if a.bursts > 0 {
			lossPct = fmt.Sprintf("%.2f%%", 100*float64(a.lossy)/float64(a.bursts))
		}
		fmt.Printf("%-8s %-4d %-13s %9.2f %6d %8.0f%% %8d %8s\n",
			m.Region, m.ID, m.Class, m.BusyAvgContention,
			m.DistinctTasks, 100*m.DominantShare, a.bursts, lossPct)
	}
}

func drill(src *dataset.Reader, region string, id int) {
	var m *fleet.RackMeta
	metas := src.RackMetas()
	for i := range metas {
		if metas[i].Region == region && metas[i].ID == id {
			m = &metas[i]
			break
		}
	}
	if m == nil {
		fmt.Fprintf(os.Stderr, "dsinspect: no rack %s/%d\n", region, id)
		os.Exit(1)
	}
	fmt.Printf("rack %s/%d: class %v, %d distinct tasks, dominant task on %.0f%% of servers",
		m.Region, m.ID, m.Class, m.DistinctTasks, 100*m.DominantShare)
	if m.MLDominated {
		fmt.Printf(" (ML-dominated placement)")
	}
	fmt.Printf(", RegB intensity %.2f\n\n", m.Intensity)

	runs, err := src.RackRuns(region, id)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsinspect:", err)
		os.Exit(1)
	}
	sort.Slice(runs, func(a, b int) bool { return runs[a].Hour < runs[b].Hour })
	hostStack := false
	for i := range runs {
		if runs[i].HostStack != nil {
			hostStack = true
			break
		}
	}
	hsHdr := ""
	if hostStack {
		hsHdr = fmt.Sprintf(" %10s", "hs-p99(µs)")
	}
	fmt.Printf("%-5s %9s %9s %8s %8s %9s %10s %9s%s\n",
		"hour", "avg-cont", "p90-cont", "bursts", "lossy", "drop%", "GB/min", "discards", hsHdr)
	var lens []float64
	for i := range runs {
		r := &runs[i]
		lossy := 0
		for _, b := range r.Bursts {
			if b.Lossy {
				lossy++
			}
			lens = append(lens, float64(b.Len))
		}
		drop := "-"
		if r.ShareDropOK {
			drop = fmt.Sprintf("%.1f%%", 100*r.ShareDrop)
		}
		hsCol := ""
		if hostStack {
			if r.HostStack != nil {
				hsCol = fmt.Sprintf(" %10.0f", r.HostStack.InP99Us)
			} else {
				hsCol = fmt.Sprintf(" %10s", "-")
			}
		}
		fmt.Printf("%-5d %9.2f %9.1f %8d %8d %9s %10.1f %9d%s\n",
			r.Hour, r.AvgContention, r.P90Contention, len(r.Bursts), lossy,
			drop, float64(r.IngressPerMin)/1e9, r.Switch.DiscardSegs, hsCol)
	}
	if len(lens) > 0 {
		b := stats.Summarize(lens)
		fmt.Printf("\nburst lengths (ms): min %.0f p25 %.0f median %.0f p75 %.0f p90 %.0f max %.0f (n=%d)\n",
			b.Min, b.P25, b.Median, b.P75, b.P90, b.Max, b.N)
	}
}
