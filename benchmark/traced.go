package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runTraced is the traced pass of one workload (-trace 1): blocks with the
// harness spans off and on in turn, so that both see the same machine, then
// (unless -probes=false) the layer probes. It prints the per-layer metrics;
// the end-to-end metrics never come from here.
func runTraced(o options, def workloadDef, w runner, e *env) (*result, error) {
	// Two pairs of blocks, and more while they have not filled four seconds:
	// a ratio of two serve-mixed blocks of a third of a second is all noise.
	pairs, seconds := 2, 4.0
	if o.short {
		pairs, seconds = 1, 0
	}
	tr := NewTracer()
	var plain, traced []*block
	for start := time.Now(); len(traced) < pairs || time.Since(start).Seconds() < seconds; {
		for _, t := range []*Tracer{nil, tr} {
			bs, err := runBlocks(w, t, 0, 1)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", def.name, err)
			}
			if t == nil {
				plain = append(plain, bs...)
			} else {
				traced = append(traced, bs...)
			}
		}
	}
	mp, err := aggregate(plain, true)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	mt, err := aggregate(traced, true)
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", def.name, err)
	}
	failed := mp.failed + mt.failed
	if pin := w.Pinned(); !hasDigest(mt.check, pin) || mt.check != mp.check {
		fmt.Printf("  DIGEST MISMATCH: traced %s, untraced %s, pinned %q\n", mt.check, mp.check, pin)
		failed = (mp.blocks + mt.blocks) * mp.ops
	}

	// Where the time goes: self time per span name over the traced blocks.
	spans := tr.Spans()
	self := SelfByName(spans)
	total := 0.0
	for _, s := range self {
		total += s
	}
	fmt.Printf("  traced pass: %d blocks, %d spans; self time per span name, per block:\n", len(traced), len(spans))
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, name := range names {
		fmt.Printf("    %-26s %10.2f ms  %5.1f%%\n", name, self[name]/float64(len(traced))*1e3, 100*self[name]/total)
	}

	out := map[string]metric{}
	setLayer(out, "trace_overhead_ratio", mt.nominal["ops_per_s"]/mp.nominal["ops_per_s"])
	var cal []float64
	for _, b := range append(plain, traced...) {
		cal = append(cal, b.Cal...)
	}
	if o.probes {
		p := &probes{tr: tr, seed: o.seed, scale: 1, work: filepath.Join(e.work, "probes"), out: out}
		if o.short {
			p.scale = 20
		}
		if err := os.MkdirAll(p.work, 0o755); err != nil {
			return nil, err
		}
		if err := p.run(); err != nil {
			return nil, err
		}
		cal = append(cal, p.cal...)
	}
	speed := calNominal / Median(cal)
	setLayer(out, "machine_speed", speed)

	path, err := WriteTrace(o.out, def.name, tr.Spans())
	if err != nil {
		return nil, err
	}
	fmt.Printf("  trace written to %s\n", path)
	fmt.Println("  the probe timings below are as the clock read them, at the machine speed given")
	for _, d := range perLayer {
		v, ok := out[d.Name]
		switch {
		case ok:
			fmt.Printf("  %-32s %16.4f %-5s -> %s\n", d.Name, v.Value, v.Unit, d.Moves)
		case o.probes && !unmeasurable(d.Name):
			return nil, fmt.Errorf("probe did not report %s", d.Name)
		}
	}
	return &result{Correct: failed == 0, Attempted: (mp.blocks + mt.blocks) * mp.ops, Failed: failed, Metrics: out,
		detail: detail{Speed: speed}}, nil
}

// unmeasurable reports whether this machine cannot give a per-layer metric:
// scaling to two workers needs two processors.
func unmeasurable(name string) bool {
	return name == "fleet.scaling_w2" && runtime.NumCPU() < 2
}
