// Command benchmark is the repository's one benchmark: four fixed-sequence
// workloads measured end to end with tracing off, and a separate traced pass
// that gives per-layer numbers. See README.md in this directory.
//
//	go run ./benchmark                      every workload, then its traced pass
//	go run ./benchmark -workload gen-full   one workload (what the driver runs)
//	go run ./benchmark -short               a seconds-long smoke of all of it
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// setupReps is how often a run sets up; setup_s is the median of them.
const setupReps = 3

// runSeconds is BENCHMARK.json's run_seconds, and the default of -seconds.
const runSeconds = 20

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	probes   bool
	short    bool
	runs     int
	out      string
	save     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: all, each in a process of its own)")
	flag.Uint64Var(&o.seed, "seed", 2022, "seed of the serve-mixed request order and the probe traffic; the simulator keeps its own seed so the golden digests hold")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measure whole blocks until this much time has gone by")
	flag.IntVar(&o.trace, "trace", 0, "1: traced pass and layer probes, printing the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.probes, "probes", true, "with -trace 1: run the layer probes after the traced blocks (a full run turns them off for all but its first traced pass: they do not depend on the workload)")
	flag.BoolVar(&o.short, "short", false, "smoke run: reduced sizes, one block per workload, probes at 1/20 size")
	flag.IntVar(&o.runs, "runs", 1, "with no -workload: runs per workload, with seeds seed, seed+1, ...")
	flag.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for traces, scratch stores and results")
	flag.StringVar(&o.save, "save", "", "with no -workload: write the results here for -compare (default <out>/results.json)")
	compare := flag.Bool("compare", false, "compare two result files given as arguments; exit 1 if any end-to-end metric worsened beyond its bound")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json")
	flag.Parse()

	// Leave the scheduler out of the numbers but give the collector and the
	// two serve-mixed clients somewhere to run.
	if runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}

	var err error
	switch {
	case *manifest:
		err = printManifest(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
			break
		}
		var worse bool
		worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && worse {
			os.Exit(1)
		}
	case o.workload != "":
		var r *result
		if r, err = runOne(o); err == nil {
			err = r.print(os.Stdout)
		}
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// result is the last line a single-workload run prints: the contract with
// the driver. Nothing else may follow it on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	detail detail
}

// detail is what a run knows beyond the contract: it goes out on the line
// before the result, marked "detail", for the full run to keep in its
// results file.
type detail struct {
	// Speed is the machine's speed in the run's median block, 1 being nominal.
	Speed float64 `json:"machine_speed"`
	// Raw holds the end-to-end metrics as the clock read them.
	Raw map[string]float64 `json:"raw,omitempty"`
	// BlockSpread is the IQR over the median across the run's blocks.
	BlockSpread map[string]float64 `json:"block_spread,omitempty"`
}

const detailMark = "detail "

func (r *result) print(w io.Writer) error {
	d, err := json.Marshal(&r.detail)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", detailMark, d)
	return json.NewEncoder(w).Encode(r)
}

// runOne measures one workload in this process and prints its report.
func runOne(o options) (*result, error) {
	def, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	work := filepath.Join(o.out, fmt.Sprintf("work-%s-%d", def.name, os.Getpid()))
	defer os.RemoveAll(work)
	e := &env{seed: o.seed, short: o.short, work: work}
	w := def.make()
	defer w.Close()

	fmt.Printf("workload %s  seed %d  GOMAXPROCS %d  %s\n", def.name, o.seed, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("  why: %s\n", def.why)

	reps := setupReps
	if o.short || o.trace == 1 {
		reps = 1
	}
	var setups, setupsNominal []float64
	for i := 0; i < reps; i++ {
		var err error
		raw, nominal := clocked(func() { err = w.Setup(e) })
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		setups, setupsNominal = append(setups, raw), append(setupsNominal, nominal)
	}

	if o.trace == 1 {
		return runTraced(o, def, w, e)
	}

	seconds, minBlocks := o.seconds, def.minBlocks
	if o.short {
		seconds, minBlocks = 0, 1
	}
	bs, err := runBlocks(w, nil, seconds, minBlocks)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	m, err := aggregate(bs, o.short)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	m.raw["setup_s"], m.nominal["setup_s"], m.spreads["setup_s"] = Median(setups), Median(setupsNominal), Spread(setupsNominal)
	m.raw["peak_rss_mb"] = peakRSSMB()
	m.nominal["peak_rss_mb"] = m.raw["peak_rss_mb"]
	if pin := w.Pinned(); !hasDigest(m.check, pin) {
		// A wrong digest fails every op.
		fmt.Printf("  DIGEST MISMATCH: got %s, pinned %q\n", m.check, pin)
		m.failed = m.blocks * m.ops
	}

	r := &result{Correct: m.failed == 0, Attempted: m.blocks * m.ops, Failed: m.failed, Metrics: map[string]metric{},
		detail: detail{Speed: m.speed, Raw: m.raw, BlockSpread: m.spreads}}
	fmt.Printf("  %d blocks of %d ops, %.1f s measured; set-up %d times: %.3f s\n", m.blocks, m.ops, m.wallTotal, reps, setups)
	fmt.Printf("  digest %s (identical in every block)\n", m.check)
	fmt.Printf("  machine speed %.3f of nominal in the median block; a time at nominal speed is the clocked one times its block's speed\n", m.speed)
	fmt.Printf("  %-14s %14s %-4s %14s  %s\n", "metric", "at nominal", "", "as clocked", "block spread (IQR/median)")
	for _, d := range endToEnd {
		v, ok := m.nominal[d.Name]
		if !ok {
			fmt.Printf("  %-14s refused: fewer than ten calls beyond the percentile\n", d.Name)
			continue
		}
		r.Metrics[d.Name] = metric{v, d.Unit}
		line := fmt.Sprintf("  %-14s %14.4f %-4s %14.4f", d.Name, v, d.Unit, m.raw[d.Name])
		if s, ok := m.spreads[d.Name]; ok {
			line += fmt.Sprintf("  %.1f%%", 100*s)
		}
		fmt.Println(line)
	}
	return r, nil
}
