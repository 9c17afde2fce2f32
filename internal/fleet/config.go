// Package fleet models the two-region deployment the paper measures: racks
// with service placement, diurnal load, an hourly SyncMillisampler schedule,
// and the rack-by-rack generation stream. Scale is configurable; the defaults
// are a scaled-down region (tens of racks of 48 servers rather than thousands
// of racks of ~92) that preserves every mechanism while staying simulable on a
// laptop.
package fleet

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/sim"
)

// Region names, matching the paper's anonymized labels.
const (
	RegA = "RegA"
	RegB = "RegB"
)

// Class labels a rack by its measured contention regime (paper §7.1). RegA
// racks split into Typical (bottom 80%) and High (top 20%); all RegB racks
// share one class.
type Class int

const (
	// ClassATypical is a RegA rack outside the top contention quintile.
	ClassATypical Class = iota
	// ClassAHigh is a RegA rack in the top contention quintile.
	ClassAHigh
	// ClassB is any RegB rack.
	ClassB
)

func (c Class) String() string {
	switch c {
	case ClassATypical:
		return "RegA-Typical"
	case ClassAHigh:
		return "RegA-High"
	default:
		return "RegB"
	}
}

// Fidelity selects the simulation engine a generation runs on.
type Fidelity string

const (
	// FidelityFull is the segment-level engine for every instant of every
	// rack-hour — the byte-identical legacy path the golden digests pin. The
	// empty string is its canonical spelling: older manifests and configs
	// predate the knob, and their zero value must keep meaning "full".
	FidelityFull Fidelity = "full"
	// FidelityHybrid advances quiet intervals with the fluid model
	// (internal/fluid) and drops to the segment engine only inside
	// burst-triggered episodes. Output is distributionally — not byte —
	// equivalent to full fidelity; the equivalence test bounds the drift.
	FidelityHybrid Fidelity = "hybrid"
)

// ParseFidelity maps a CLI/spec string onto a Fidelity value.
func ParseFidelity(s string) (Fidelity, error) {
	switch Fidelity(s) {
	case "", FidelityFull:
		return FidelityFull, nil
	case FidelityHybrid:
		return FidelityHybrid, nil
	}
	return "", fmt.Errorf("fleet: unknown fidelity %q (want full or hybrid)", s)
}

// Config sizes a dataset generation.
type Config struct {
	// Seed drives all placement and traffic randomness.
	Seed uint64
	// RacksPerRegion is the number of racks sampled per region (the paper
	// samples 1000; the default of 32 preserves the distributions).
	RacksPerRegion int
	// ServersPerRack is the rack size (the studied platform averages 92
	// servers; default 48 keeps event counts tractable while leaving room
	// for double-digit contention).
	ServersPerRack int
	// MLRackFraction is the fraction of RegA racks dominated by the
	// co-located ML workload (the paper finds ~20%).
	MLRackFraction float64
	// Hours lists the local hours at which each rack runs SyncMillisampler
	// (the paper samples hourly; default every two hours).
	Hours []int
	// Buckets is the per-run sample count (default 1000 -> 1 s runs at 1 ms;
	// the paper uses 2000 -> 2 s).
	Buckets int
	// Interval is the sampling interval (default 1 ms).
	Interval sim.Time
	// Workers bounds generation parallelism (default GOMAXPROCS).
	Workers int
	// KeepExamples retains the raw SyncRun of one low- and one
	// high-contention run for the deep-dive figure.
	KeepExamples bool
	// Switch applies a counterfactual ToR configuration to every rack. The
	// zero value keeps the production defaults and reproduces the measured
	// fleet exactly; the sweep engine varies it per grid point.
	Switch SwitchOverride
	// Fidelity selects the engine: empty or FidelityFull is the byte-identical
	// legacy path, FidelityHybrid the fluid fast path. The normalized form
	// spells full as "" so manifests written before the knob still match.
	Fidelity Fidelity
	// HostStack arms the host-stack latency instrument (internal/hoststack)
	// beside Millisampler on every server. The tap is pure bookkeeping, so
	// turning it on changes no simulated behavior — sweep metrics stay
	// byte-identical — but each RunSummary gains a HostStackRec, so dataset
	// digests differ and mixed-knob resume is refused. HostStack forces full
	// packet fidelity: the fluid model advances quiet intervals without
	// per-segment delivery events, so there is nothing for the tap to
	// timestamp (same contract as hybrid-incompatible switch overrides).
	HostStack bool
}

// DefaultConfig is the full-size generation used by cmd/fleetgen and the
// benchmark harness.
func DefaultConfig() Config {
	return Config{
		Seed:           2022,
		RacksPerRegion: 32,
		ServersPerRack: 48,
		MLRackFraction: 0.20,
		Hours:          []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22},
		Buckets:        1000,
		Interval:       sim.Millisecond,
		Workers:        runtime.GOMAXPROCS(0),
		KeepExamples:   true,
	}
}

// SmallConfig is a fast configuration for tests: a handful of racks, three
// sampled hours, shorter windows.
func SmallConfig() Config {
	c := DefaultConfig()
	c.RacksPerRegion = 5
	c.ServersPerRack = 24
	c.Hours = []int{2, 6, 14}
	c.Buckets = 400
	return c
}

// PaperConfig is the paper-scale dataset: ~1000 racks per region of 92
// servers, sampled hourly with the paper's 2 s windows (2000 × 1 ms). At
// 48,000 rack-hours it is a multi-hour generation — run it through the
// sharded cmd/fleetgen output so it can be produced in installments and
// resumed after interruption.
func PaperConfig() Config {
	c := DefaultConfig()
	c.RacksPerRegion = 1000
	c.ServersPerRack = 92
	c.Hours = make([]int, 24)
	for h := range c.Hours {
		c.Hours[h] = h
	}
	c.Buckets = 2000
	return c
}

// Preset resolves a CLI -preset name to its configuration.
func Preset(name string) (Config, bool) {
	switch name {
	case "small":
		return SmallConfig(), true
	case "default":
		return DefaultConfig(), true
	case "paper":
		return PaperConfig(), true
	}
	return Config{}, false
}

// Validate rejects configurations the dataset encoding cannot represent:
// BurstRec stores server indices, burst lengths, and contention levels as
// int16, so ServersPerRack and Buckets (which bound burst length in samples)
// must not exceed MaxInt16. Each hour may appear once: a repeat would
// generate its rack-hours twice and double-weight them in every figure. Zero
// values mean "use the default" and pass.
func (c Config) Validate() error {
	if c.ServersPerRack > math.MaxInt16 {
		return fmt.Errorf("fleet: ServersPerRack %d exceeds %d (BurstRec stores server indices and contention as int16)",
			c.ServersPerRack, math.MaxInt16)
	}
	if c.Buckets > math.MaxInt16 {
		return fmt.Errorf("fleet: Buckets %d exceeds %d (BurstRec stores burst lengths in samples as int16)",
			c.Buckets, math.MaxInt16)
	}
	var seen [24]bool
	for _, h := range c.Hours {
		if h < 0 || h > 23 {
			return fmt.Errorf("fleet: hour %d outside [0,23]", h)
		}
		if seen[h] {
			return fmt.Errorf("fleet: hour %d listed twice", h)
		}
		seen[h] = true
	}
	if _, err := ParseFidelity(string(c.Fidelity)); err != nil {
		return err
	}
	if !c.Switch.IsZero() {
		ports := c.ServersPerRack
		if ports <= 0 {
			ports = DefaultConfig().ServersPerRack
		}
		if err := c.Switch.Validate(ports); err != nil {
			return err
		}
	}
	return nil
}

// WithDefaults returns the configuration with every zero field replaced by
// its DefaultConfig value — the normalized form recorded in dataset
// manifests and used throughout generation.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// Stored is the form a resumable store records and compares on resume:
// defaults resolved, and Workers, which never affects output, cleared so a
// different parallelism never blocks a resume.
func (c Config) Stored() Config {
	c = c.withDefaults()
	c.Workers = 0
	return c
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.RacksPerRegion <= 0 {
		c.RacksPerRegion = d.RacksPerRegion
	}
	if c.ServersPerRack <= 0 {
		c.ServersPerRack = d.ServersPerRack
	}
	if c.MLRackFraction <= 0 {
		c.MLRackFraction = d.MLRackFraction
	}
	if len(c.Hours) == 0 {
		c.Hours = d.Hours
	}
	if c.Buckets <= 0 {
		c.Buckets = d.Buckets
	}
	if c.Interval <= 0 {
		c.Interval = d.Interval
	}
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.Fidelity == FidelityFull {
		c.Fidelity = ""
	}
	return c
}

// Describe renders every knob that decides a generation's output — seed,
// fleet shape, fidelity, host-stack instrument, switch override — on one
// line, defaults resolved. The resumable stores print it for both sides of a
// refused resume, and the inspection tools as their status line, so a new
// knob is spelled in one place.
func (c Config) Describe() string {
	c = c.withDefaults()
	fid, hs := c.Fidelity, "off"
	if fid == "" {
		fid = FidelityFull
	}
	if c.HostStack {
		hs = "on"
	}
	return fmt.Sprintf("seed %d / %d racks/region x %d servers x %d hours x %d buckets / %s fidelity / hoststack %s / switch %s",
		c.Seed, c.RacksPerRegion, c.ServersPerRack, len(c.Hours), c.Buckets, fid, hs, c.Switch)
}

// BusyHour is the hour used for the cross-rack contention snapshot (paper
// §7.1 uses 6-7am local, busy in both regions).
const BusyHour = 6

// BusyPick picks a rack's busy-hour statistic as its hours arrive in
// schedule order: the average contention of the run nearest BusyHour, the
// first such run on a tie. A failed run competes with its zero average. The
// dataset and the sweep baseline both classify racks by it. The zero value
// is ready to use.
type BusyPick struct {
	avg  float64
	dist int // the picked run's distance from BusyHour
	seen bool
}

// Add offers one run's average contention.
func (b *BusyPick) Add(hour int, avg float64) {
	if dist := max(hour-BusyHour, BusyHour-hour); !b.seen || dist < b.dist {
		b.avg, b.dist, b.seen = avg, dist, true
	}
}

// Avg returns the picked run's average contention; zero before any Add.
func (b *BusyPick) Avg() float64 { return b.avg }

// DiurnalFactor returns the load multiplier at a local hour: a plateau
// raised by roughly 30% between hours 4 and 10, matching the paper's
// observation of a 27.6% average contention increase in that window.
func DiurnalFactor(hour int) float64 {
	h := float64(((hour % 24) + 24) % 24)
	// Smooth bump centered at hour 7.
	d := (h - 7) / 3.2
	return 1.0 + 0.32*math.Exp(-d*d/2)
}
