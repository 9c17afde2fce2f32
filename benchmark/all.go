package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// series is one metric over the runs of a set.
type series struct {
	Unit string `json:"unit"`
	// Values are as reported: end-to-end times at nominal machine speed.
	Values []float64 `json:"values"`
	// Raw are the same readings as the clock took them, run by run, and
	// BlockSpread each run's IQR over the median across its own blocks.
	Raw         []float64 `json:"raw,omitempty"`
	BlockSpread []float64 `json:"block_spread,omitempty"`
	Median      float64   `json:"median"`
	// Spread is the interquartile range over the median, as the acceptance
	// driver computes it; 0 for a single run.
	Spread float64 `json:"spread"`
}

// workloadResults is what a set of runs recorded for one workload.
type workloadResults struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Speed is the machine's speed during each run, 1 being nominal: a raw
	// time multiplied by it is the reported one.
	Speed    []float64         `json:"machine_speed"`
	EndToEnd map[string]series `json:"end_to_end"`
	// Traced holds what the workload's traced pass measured of the workload
	// itself: trace_overhead_ratio and the pass's machine_speed.
	Traced map[string]series `json:"traced,omitempty"`
}

// resultsFile is what -save writes and -compare reads.
type resultsFile struct {
	Seed      uint64                      `json:"seed"`
	Runs      int                         `json:"runs"`
	Seconds   float64                     `json:"seconds"`
	Short     bool                        `json:"short,omitempty"`
	Workloads map[string]*workloadResults `json:"workloads"`
	// Probes are the layer probes, which do not depend on the workload and
	// run once, after the first traced pass.
	Probes map[string]series `json:"probes"`
}

// tracedOnly names the per-layer metrics every traced pass measures; the
// rest are probes.
var tracedOnly = map[string]bool{"trace_overhead_ratio": true, "machine_speed": true}

// runAll drives every workload, each run in a process of its own so that
// peak memory and heap state belong to that workload alone: first the
// untraced runs (round-robin over the workloads, one seed per round), then
// one traced pass per workload, the first of them followed by the probes.
func runAll(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	out := resultsFile{Seed: o.seed, Runs: o.runs, Seconds: o.seconds, Short: o.short,
		Workloads: map[string]*workloadResults{}, Probes: map[string]series{}}
	for _, def := range workloads {
		out.Workloads[def.name] = &workloadResults{EndToEnd: map[string]series{}, Traced: map[string]series{}}
	}
	child := func(def workloadDef, seed uint64, trace int, probes bool) (*result, error) {
		args := []string{
			"-workload", def.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
			"-probes=" + strconv.FormatBool(probes), "-out", o.out,
		}
		if o.short {
			args = append(args, "-short")
		}
		return runChild(exe, args)
	}
	for run := 0; run < o.runs; run++ {
		for _, def := range workloads {
			r, err := child(def, o.seed+uint64(run), 0, false)
			if err != nil {
				return fmt.Errorf("%s: %w", def.name, err)
			}
			w := out.Workloads[def.name]
			w.Attempted += r.Attempted
			w.Failed += r.Failed
			w.Speed = append(w.Speed, r.detail.Speed)
			for name, m := range r.Metrics {
				s := w.EndToEnd[name]
				s.Unit = m.Unit
				s.Values = append(s.Values, m.Value)
				s.Raw = append(s.Raw, r.detail.Raw[name])
				if bs, ok := r.detail.BlockSpread[name]; ok {
					s.BlockSpread = append(s.BlockSpread, bs)
				}
				w.EndToEnd[name] = s
			}
		}
	}
	for i, def := range workloads {
		r, err := child(def, o.seed, 1, i == 0)
		if err != nil {
			return fmt.Errorf("%s traced: %w", def.name, err)
		}
		w := out.Workloads[def.name]
		w.Failed += r.Failed
		for name, m := range r.Metrics {
			into := out.Probes
			if tracedOnly[name] {
				into = w.Traced
			}
			into[name] = series{Unit: m.Unit, Values: []float64{m.Value}}
		}
	}

	failed := 0
	for _, w := range out.Workloads {
		failed += w.Failed
		for _, set := range []map[string]series{w.EndToEnd, w.Traced, out.Probes} {
			for name, s := range set {
				s.Median, s.Spread = Median(s.Values), Spread(s.Values)
				set[name] = s
			}
		}
	}
	printSummary(os.Stdout, &out)
	save := o.save
	if save == "" {
		save = filepath.Join(o.out, "results.json")
	}
	data, err := json.MarshalIndent(&out, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(save), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(save, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", save)
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

// runChild runs one single-workload process, passes its report through, and
// parses the detail and the result on its last two lines.
func runChild(exe string, args []string) (*result, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if err != nil || len(lines) < 2 {
		fmt.Println(string(stdout))
		if err == nil {
			err = fmt.Errorf("child printed no result")
		}
		return nil, err
	}
	n := len(lines)
	fmt.Println(strings.Join(lines[:n-2], "\n"))
	var r result
	if err := json.Unmarshal([]byte(lines[n-1]), &r); err != nil {
		return nil, fmt.Errorf("last line of child output is not a result: %w", err)
	}
	d, ok := strings.CutPrefix(lines[n-2], detailMark)
	if !ok {
		return nil, fmt.Errorf("child printed no detail line before its result")
	}
	if err := json.Unmarshal([]byte(d), &r.detail); err != nil {
		return nil, fmt.Errorf("detail line: %w", err)
	}
	return &r, nil
}

func printSummary(w io.Writer, f *resultsFile) {
	fmt.Fprintf(w, "\nsummary: %d run(s) per workload, seeds %d..%d\n", f.Runs, f.Seed, f.Seed+uint64(f.Runs)-1)
	fmt.Fprintln(w, "  run spread = IQR/median across the runs; block spread = IQR/median across one run's blocks, median and widest over the runs")
	for _, def := range workloads {
		wr := f.Workloads[def.name]
		lo, hi := minMax(wr.Speed)
		fmt.Fprintf(w, "%s: %d ops attempted, %d failed; machine speed %.2f to %.2f of nominal\n", def.name, wr.Attempted, wr.Failed, lo, hi)
		fmt.Fprintf(w, "  %-14s %14s %-4s %10s %6s %14s %10s  %s\n", "metric", "at nominal", "", "run spread", "bound", "as clocked", "run spread", "block spread")
		for _, d := range endToEnd {
			s, ok := wr.EndToEnd[d.Name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("  %-14s %14.4f %-4s %9.1f%% %5.0f%% %14.4f %9.1f%%", d.Name, s.Median, s.Unit, 100*s.Spread, 100*d.Bound, Median(s.Raw), 100*Spread(s.Raw))
			if len(s.BlockSpread) > 0 {
				_, widest := minMax(s.BlockSpread)
				line += fmt.Sprintf("  %.1f%% / %.1f%%", 100*Median(s.BlockSpread), 100*widest)
			}
			fmt.Fprintln(w, line)
		}
		if t, ok := wr.Traced["trace_overhead_ratio"]; ok {
			fmt.Fprintf(w, "  trace_overhead_ratio %.3f (traced over untraced ops_per_s)\n", t.Median)
		}
	}
	full, hybrid := f.Workloads["gen-full"].EndToEnd["ops_per_s"], f.Workloads["gen-hybrid"].EndToEnd["ops_per_s"]
	if full.Median > 0 && !f.Short {
		fmt.Fprintf(w, "hybrid speed-up on the small preset: %.2fx (gen-hybrid over gen-full ops_per_s; base: gen-full)\n", hybrid.Median/full.Median)
	}
}

func minMax(v []float64) (lo, hi float64) {
	for i, x := range v {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}
