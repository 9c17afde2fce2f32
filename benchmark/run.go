package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is what a workload gets from the command line.
type env struct {
	seed  uint64
	short bool   // -short: reduced sizes, one block
	work  string // scratch directory, emptied by the workload as it likes
}

// block is the outcome of one pass over a workload's fixed op sequence.
type block struct {
	Wall   float64   // seconds in the timed region, calibration excluded
	CPU    float64   // seconds of process user+sys in the timed region
	Calls  []float64 // latency in seconds of every op, by position
	Cal    []float64 // calibration samples taken inside the block, seconds
	Bytes  int64     // store bytes written, or response bytes read
	Failed int       // ops whose output was wrong
	Check  string    // digest of the block's output, identical in every block
}

// runner is one of the four benchmark workloads. Setup builds everything
// a block needs and runs one untimed warm-up block; it may be called again
// and then starts from nothing. Block replays the op sequence once.
type runner interface {
	Setup(e *env) error
	Block(tr *Tracer) (*block, error)
	// Pinned returns the digest every block's Check must start with.
	Pinned() string
	Close()
}

type workloadDef struct {
	name string
	why  string
	// minBlocks keeps at least 100 calls in a run (so ten lie beyond the
	// p90) and at least five repetitions of every op.
	minBlocks int
	make      func() runner
}

var workloads = []workloadDef{
	{"gen-full", "Packet engine end to end: sim, netsim, switchsim, transport and core do nearly all the work of a full-fidelity small-preset generation; fluid, the stores and queryd almost none.", 5,
		func() runner { return &genWorkload{fidelity: "full"} }},
	{"gen-hybrid", "Same generation on the fluid fast path: fluid walk, burst detector and rack build dominate and dataset writes have their largest share; a sim gain shows little here, a fluid gain little on gen-full.", 5,
		func() runner { return &genWorkload{fidelity: "hybrid"} }},
	{"sweep-zoo", "All five buffer-sharing policies through the SharingPolicy interface, bshare and abm forced off the hybrid path, writing the sweep store: the only workload a policy or sweep-store change moves.", 12,
		func() runner { return &sweepWorkload{} }},
	{"serve-mixed", "The read side over loopback TCP: queryd cache hits beside misses, rack streams beside full walks, dataset decode and experiments renders, two closed-loop clients; none of it runs in the generators.", 5,
		func() runner { return &serveWorkload{} }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric for BENCHMARK.json. Bound is set for
// end-to-end metrics only; Moves says which end-to-end metric a per-layer
// metric should move, and on which workload; Exact marks a value that repeats
// exactly from run to run.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
	Exact  bool
}

// The bounds are ISSUE 13's. README.md has the runs that show how far below
// them the spread of ten runs stays on the box this was written on.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "call_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "call_p90_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "bytes_per_op", Unit: "B", Better: "lower", Bound: 0.02},
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB reads the process's high-water resident set (VmHWM). The harness
// runs one workload per process so the figure belongs to that workload.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// calPerOp is how many calibration samples follow each op of a serial block:
// 5 ms beside ops of 25 to 400 ms.
const calPerOp = 2

// marker times the ops of a serial block. After each op it takes calPerOp
// calibration samples, outside the op's time.
type marker struct {
	tr         *Tracer
	calls, cal []float64
	wall, cpu  float64
	lastT      time.Time
	lastC      float64
}

func newMarker(tr *Tracer) *marker {
	return &marker{tr: tr, lastT: time.Now(), lastC: cpuSeconds()}
}

// mark ends the current op (or the stretch before the first and after the
// last, which count toward the block but are no op).
func (m *marker) mark(isOp bool) {
	now, c := time.Now(), cpuSeconds()
	d := now.Sub(m.lastT).Seconds()
	m.wall += d
	m.cpu += c - m.lastC
	if isOp {
		m.calls = append(m.calls, d)
	}
	span := m.tr.Begin("harness.calibrate", -1)
	for i := 0; i < calPerOp; i++ {
		m.cal = append(m.cal, calibrate())
	}
	m.tr.End(span)
	m.lastT, m.lastC = time.Now(), cpuSeconds()
}

func (m *marker) block() *block {
	return &block{Wall: m.wall, CPU: m.cpu, Calls: m.calls, Cal: m.cal}
}

// speed is the machine's speed while the block ran, 1 being nominal:
// calNominal over the mean of the block's calibration samples. A time
// multiplied by it is the time at nominal speed.
func (b *block) speed() float64 { return calNominal / Mean(b.Cal) }

// measured is a run's aggregate over its blocks.
type measured struct {
	blocks    int
	ops       int // per block
	failed    int
	check     string
	raw       map[string]float64 // end-to-end metrics as the clock read them
	nominal   map[string]float64 // the same with each block's times at nominal speed: what is reported
	spreads   map[string]float64 // IQR/median of nominal over the blocks, where a block alone gives the metric
	speed     float64            // median block's machine speed
	wallTotal float64
}

// aggregate turns blocks into the end-to-end metrics (set-up and memory are
// added by the caller), once as the clock read them and once with every
// block's wall time, CPU time and calls multiplied by that block's machine
// speed.
//
// With short set, a percentile the sample cannot support is left out rather
// than reported as an error.
func aggregate(bs []*block, short bool) (*measured, error) {
	if len(bs) == 0 {
		return nil, fmt.Errorf("no blocks measured")
	}
	ops := len(bs[0].Calls)
	m := &measured{blocks: len(bs), ops: ops, check: bs[0].Check}
	var speeds []float64
	for i, b := range bs {
		if len(b.Calls) != ops {
			return nil, fmt.Errorf("block %d ran %d ops, block 0 ran %d: the op sequence is not fixed", i, len(b.Calls), ops)
		}
		if b.Check != m.check {
			return nil, fmt.Errorf("block %d digest %s differs from block 0 digest %s", i, b.Check, m.check)
		}
		if b.Bytes != bs[0].Bytes {
			return nil, fmt.Errorf("block %d moved %d bytes, block 0 moved %d", i, b.Bytes, bs[0].Bytes)
		}
		if len(b.Cal) == 0 {
			return nil, fmt.Errorf("block %d took no calibration sample", i)
		}
		m.failed += b.Failed
		m.wallTotal += b.Wall
		speeds = append(speeds, b.speed())
	}
	m.speed = Median(speeds)
	var err error
	if m.raw, _, err = readings(bs, func(*block) float64 { return 1 }, short); err != nil {
		return nil, err
	}
	m.nominal, m.spreads, err = readings(bs, (*block).speed, short)
	return m, err
}

// readings computes the metrics from the blocks, each block's times
// multiplied by factor(block). Throughput and CPU per op are computed per
// block and the median over the blocks is taken; the latency percentiles are
// taken over the calls of all blocks pooled. spreads holds the IQR over the
// median across the blocks: of the per-block values, and of a percentile
// taken block by block when a block alone supports it.
func readings(bs []*block, factor func(*block) float64, short bool) (vals, spreads map[string]float64, err error) {
	ops := float64(len(bs[0].Calls))
	vals, spreads = map[string]float64{}, map[string]float64{}
	var pooled, opsPS, cpuMS []float64
	perBlock := make([][]float64, len(bs))
	for i, b := range bs {
		f := factor(b)
		opsPS = append(opsPS, ops/(b.Wall*f))
		cpuMS = append(cpuMS, b.CPU*f/ops*1e3)
		for _, c := range b.Calls {
			perBlock[i] = append(perBlock[i], c*f*1e3)
		}
		pooled = append(pooled, perBlock[i]...)
	}
	vals["ops_per_s"], spreads["ops_per_s"] = Median(opsPS), Spread(opsPS)
	vals["cpu_ms_per_op"], spreads["cpu_ms_per_op"] = Median(cpuMS), Spread(cpuMS)
	vals["bytes_per_op"] = float64(bs[0].Bytes) / ops
	for _, pc := range []struct {
		name string
		p    float64
	}{{"call_p50_ms", 50}, {"call_p90_ms", 90}} {
		v, err := Percentile(pooled, pc.p)
		if err != nil {
			if short {
				continue
			}
			return nil, nil, fmt.Errorf("%s over %d calls: %w", pc.name, len(pooled), err)
		}
		vals[pc.name] = v
		var each []float64
		for _, calls := range perBlock {
			if v, err := Percentile(calls, pc.p); err == nil {
				each = append(each, v)
			}
		}
		if len(each) == len(bs) {
			spreads[pc.name] = Spread(each)
		}
	}
	return vals, spreads, nil
}

// runBlocks measures whole blocks until `seconds` of wall time have gone by
// and at least minBlocks are done. runtime.GC runs between blocks, outside
// the timed region, so no block inherits another's garbage.
func runBlocks(w runner, tr *Tracer, seconds float64, minBlocks int) ([]*block, error) {
	const maxBlocks = 256
	var bs []*block
	start := time.Now()
	for {
		runtime.GC()
		b, err := w.Block(tr)
		if err != nil {
			return nil, err
		}
		bs = append(bs, b)
		if n := len(bs); n >= maxBlocks || (n >= minBlocks && time.Since(start).Seconds() >= seconds) {
			return bs, nil
		}
	}
}
