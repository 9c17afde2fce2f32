// Command sweep executes a what-if sweep: it re-runs the simulated fleet's
// rack-hours under a grid of counterfactual ToR configurations (sharing
// policy × DT alpha × ECN threshold × buffer sizing) and reports every
// point's loss, ECN, burst, and peak-occupancy movement against the measured
// baseline (dynamic thresholds, alpha 1) — the paper's §9 question asked of
// the simulation.
//
// The result directory is resumable in the style of cmd/fleetgen: every
// point commits atomically with a digest, so a killed sweep re-invoked with
// the same spec verifies completed points and computes only the remainder,
// ending at a byte-identical result. A different spec or seed over the same
// directory is refused.
//
// Usage:
//
//	sweep -preset smoke -o sweep.out            # 4-point sanity sweep
//	sweep -preset demo -o sweep.out -md W.md    # 26-point policy/alpha/ECN grid
//	sweep -spec my.json -o sweep.out            # declarative spec (JSON)
//	sweep -spec my.json -o sweep.out -plan      # print the grid, run nothing
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/distrib"
	"repro/internal/fleet"
	"repro/internal/fsutil"
	"repro/internal/prof"
	"repro/internal/sweep"
	"repro/internal/switchsim"
)

func main() {
	specPath := flag.String("spec", "", "sweep spec JSON (see -preset for built-ins)")
	preset := flag.String("preset", "", "built-in spec: smoke (4 points) or demo (26 points)")
	out := flag.String("o", "sweep.out", "result directory (resumable)")
	workers := flag.Int("workers", 0, "override simulation parallelism")
	maxPoints := flag.Int("max-points", 0, "stop after N new points (installment execution)")
	plan := flag.Bool("plan", false, "print the expanded point grid and exit")
	md := flag.String("md", "", "also write the report as markdown to this file")
	distributed := flag.String("distributed", "", "coordinator URL: submit the sweep as a distributed job instead of running locally")
	fidelity := flag.String("fidelity", "", "simulation fidelity: full (default, byte-exact) or hybrid (fluid fast path)")
	profFlags := prof.AddFlags(flag.CommandLine)
	flag.Parse()

	profSession, err := profFlags.Start()
	if err != nil {
		fail(err)
	}
	defer profSession.Stop()

	spec, err := resolveSpec(*specPath, *preset)
	if err != nil {
		fail(err)
	}
	if *fidelity != "" {
		fid, err := fleet.ParseFidelity(*fidelity)
		if err != nil {
			fail(err)
		}
		spec.Fleet.Fidelity = fid
	}
	pts, err := spec.Expand()
	if err != nil {
		fail(err)
	}
	if *plan {
		fmt.Printf("%s: %d points over %s\n", name(spec), len(pts), spec.Fleet.Describe())
		for _, p := range pts {
			fmt.Printf("  %3d  %s\n", p.Index, p.Label)
		}
		return
	}

	start := time.Now()
	doneAtStart := 0
	// Read-only peek for the progress line; sweep.Run does the validating,
	// mutating open (and refuses a mismatched spec) exactly once.
	if man, err := sweep.Inspect(*out); err == nil {
		done, total := man.Progress()
		doneAtStart = done
		if done > 0 {
			fmt.Fprintf(os.Stderr, "sweep: resuming %s: %d/%d points already committed\n", *out, done, total)
		}
	}
	fmt.Fprintf(os.Stderr, "sweep: %s: %d points, %d rack-hours each\n",
		name(spec), len(pts),
		2*spec.Fleet.WithDefaults().RacksPerRegion*len(spec.Fleet.WithDefaults().Hours))

	progress := func(p sweep.Progress) {
		elapsed := time.Since(start)
		eta := "-"
		if fresh := p.Done - doneAtStart; fresh > 0 && p.Done < p.Total {
			remaining := time.Duration(float64(elapsed) / float64(fresh) * float64(p.Total-p.Done))
			eta = remaining.Round(time.Second).String()
		}
		fmt.Fprintf(os.Stderr, "sweep: point %d (%s) done — %d/%d, eta %s\n",
			p.Index, p.Label, p.Done, p.Total, eta)
	}
	// Ctrl-C / SIGTERM abort cleanly between rack-hours: committed points
	// stay, no temp files leak, and re-running the same spec resumes.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var res *sweep.Result
	if *distributed != "" {
		res, err = runDistributed(ctx, *distributed, *out, spec)
	} else {
		res, err = sweep.Run(ctx, *out, spec, sweep.Options{
			Workers: *workers, MaxPoints: *maxPoints, Progress: progress,
		})
	}
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			fmt.Fprintln(os.Stderr, "sweep: interrupted; committed points kept, re-run the same spec to resume")
			os.Exit(1)
		case errors.Is(err, sweep.ErrIncomplete):
			fmt.Fprintln(os.Stderr, "sweep:", err)
			return
		case errors.Is(err, sweep.ErrSpecMismatch):
			fmt.Fprintln(os.Stderr, "sweep:", err)
			fmt.Fprintln(os.Stderr, "sweep: use a fresh -o directory for a different spec or seed")
		default:
			fmt.Fprintln(os.Stderr, "sweep:", err)
		}
		os.Exit(1)
	}

	results := sweep.Report(res)
	for _, r := range results {
		r.Render(os.Stdout)
	}
	if *md != "" {
		f, err := os.Create(*md)
		if err != nil {
			fail(err)
		}
		for _, r := range results {
			r.RenderMarkdown(f)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "sweep: wrote markdown to %s\n", *md)
	}
	fmt.Fprintf(os.Stderr, "sweep: %d points -> %s in %v (result digest %s)\n",
		len(res.Points), *out, time.Since(start).Round(time.Second), res.Manifest.ResultDigest)
}

// runDistributed submits the sweep to a coordinator, waits until complete,
// and opens the result directory locally for the usual report path. The
// directory must be visible to this process (same machine or shared storage).
func runDistributed(ctx context.Context, coordURL, dir string, spec sweep.Spec) (*sweep.Result, error) {
	c := &distrib.Client{BaseURL: coordURL, Worker: "sweep-submit"}
	if err := c.Submit(ctx, &distrib.JobRequest{Kind: distrib.KindPoint, Dir: dir, Spec: &spec}); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "sweep: job submitted to %s (dir %s); waiting for workers\n", coordURL, dir)
	st, err := c.WaitComplete(ctx, func(done, total int) {
		fmt.Fprintf(os.Stderr, "sweep: %d/%d points committed\n", done, total)
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "sweep: distributed run complete, fingerprint %s\n", st.Fingerprint)
	if !sweep.IsDir(dir) {
		fmt.Fprintf(os.Stderr, "sweep: result directory %s is not visible locally; inspect it on the coordinator host\n", dir)
		os.Exit(0)
	}
	return sweep.Open(dir)
}

// resolveSpec picks the spec from -spec or -preset (exactly one).
func resolveSpec(path, preset string) (sweep.Spec, error) {
	switch {
	case path != "" && preset != "":
		return sweep.Spec{}, fmt.Errorf("use -spec or -preset, not both")
	case path != "":
		var s sweep.Spec
		if err := fsutil.ReadJSON(path, &s); err != nil {
			return sweep.Spec{}, err
		}
		return s, nil
	case preset == "smoke":
		return SmokeSpec(), nil
	case preset == "demo":
		return DemoSpec(), nil
	case preset == "":
		return sweep.Spec{}, fmt.Errorf("need -spec FILE or -preset smoke|demo")
	default:
		return sweep.Spec{}, fmt.Errorf("unknown preset %q (want smoke or demo)", preset)
	}
}

// SmokeSpec is the 4-point CI sweep: baseline vs complete-sharing, BShare,
// and ABM over a minimal fleet — enough to exercise the full engine path,
// including both policies that force full packet fidelity, in seconds.
func SmokeSpec() sweep.Spec {
	return sweep.Spec{
		Name: "smoke",
		Fleet: fleet.Config{
			Seed:           2022,
			RacksPerRegion: 2,
			ServersPerRack: 16,
			Hours:          []int{6},
			Buckets:        300,
		},
		Policies: []switchsim.Policy{
			switchsim.PolicyComplete, switchsim.PolicyBShare, switchsim.PolicyABM,
		},
	}
}

// DemoSpec is the 26-point §9 grid: five DT and ABM alphas at two ECN
// thresholds plus the static, complete-sharing, and BShare disciplines, over
// a fleet just large enough that the RegA top-contention quintile is
// populated (5 RegA racks -> 1 RegA-High).
func DemoSpec() sweep.Spec {
	return sweep.Spec{
		Name: "demo",
		Fleet: fleet.Config{
			Seed:           2022,
			RacksPerRegion: 5,
			ServersPerRack: 24,
			Hours:          []int{6},
			Buckets:        400,
		},
		Policies:      switchsim.KnownPolicies(),
		Alphas:        []float64{0.5, 1, 2, 4, 8},
		ECNThresholds: []int{0, 60 << 10},
	}
}

func name(s sweep.Spec) string {
	if s.Name != "" {
		return s.Name
	}
	return "sweep"
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
