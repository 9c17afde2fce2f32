package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worsening is how much b is worse than a as a share of a, negative when b
// is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and end-to-end metric, how much the
// second set's median is worse than the first's beside the metric's bound
// and both sets' own spreads, and reports whether any bound was exceeded,
// any op failed, or any exact per-layer count differs. It is the A/A tool
// (two sets from one commit) and the parent-versus-change tool.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Seconds != b.Seconds || a.Short != b.Short {
		return false, fmt.Errorf("the two sets measured different work: -seconds %v and %v, -short %v and %v", a.Seconds, b.Seconds, a.Short, b.Short)
	}
	worse := false
	fmt.Fprintf(w, "A = %s (%d runs), B = %s (%d runs); positive = B worse\n", pathA, a.Runs, pathB, b.Runs)
	fmt.Fprintf(w, "%-12s %-14s %14s %14s %8s %7s %8s %8s\n", "workload", "metric", "A median", "B median", "B worse", "bound", "A spread", "B spread")
	for _, def := range workloads {
		wa, wb := a.Workloads[def.name], b.Workloads[def.name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s missing from one of the files", def.name)
		}
		if wa.Failed+wb.Failed > 0 {
			worse = true
			fmt.Fprintf(w, "%-12s failed ops: A %d of %d, B %d of %d  FAILED\n", def.name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		}
		for _, d := range endToEnd {
			sa, oka := wa.EndToEnd[d.Name]
			sb, okb := wb.EndToEnd[d.Name]
			if !oka || !okb {
				return false, fmt.Errorf("%s/%s missing from one of the files", def.name, d.Name)
			}
			rel := worsening(sa.Median, sb.Median, d.Better)
			verdict := ""
			switch {
			case rel > d.Bound:
				verdict, worse = "  WORSE", true
			case sa.Spread > d.Bound || sb.Spread > d.Bound:
				verdict = "  unresolved: spread wider than bound"
			}
			fmt.Fprintf(w, "%-12s %-14s %14.4f %14.4f %+7.1f%% %6.0f%% %7.1f%% %7.1f%%%s\n",
				def.name, d.Name, sa.Median, sb.Median, 100*rel, 100*d.Bound, 100*sa.Spread, 100*sb.Spread, verdict)
		}
	}
	for _, d := range perLayer {
		if !d.Exact {
			continue
		}
		sa, oka := a.Probes[d.Name]
		sb, okb := b.Probes[d.Name]
		if oka && okb && sa.Median != sb.Median {
			worse = true
			fmt.Fprintf(w, "%-32s exact count differs: A %v, B %v  DIFFERS\n", d.Name, sa.Median, sb.Median)
		}
	}
	if worse {
		fmt.Fprintln(w, "verdict: B is worse than A beyond a bound, or a count or a check differs")
	} else {
		fmt.Fprintln(w, "verdict: within bounds")
	}
	return worse, nil
}
