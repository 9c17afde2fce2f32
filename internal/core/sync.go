package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/hoststack"
	"repro/internal/netsim"
	"repro/internal/retry"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// CollectionStatus classifies one host's contribution to a synchronized
// collection. The zero value is StatusOK so directly-constructed series
// (tests, replay tooling) default to healthy.
type CollectionStatus int

const (
	// StatusOK is a complete harvest (an idle host that saw no traffic is
	// still OK: nothing was lost).
	StatusOK CollectionStatus = iota
	// StatusTruncated is a harvested run that was interrupted mid-window
	// (host crash); data up to the interruption is valid.
	StatusTruncated
	// StatusMissing means no run was harvested: every RPC attempt failed or
	// the straggler deadline passed.
	StatusMissing
	// StatusUnsynced means the host did not participate in the synchronized
	// start (it was down when the run was armed), so whatever it collected
	// cannot be aligned with the rack.
	StatusUnsynced
)

func (s CollectionStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusTruncated:
		return "truncated"
	case StatusMissing:
		return "missing"
	case StatusUnsynced:
		return "unsynced"
	default:
		return fmt.Sprintf("CollectionStatus(%d)", int(s))
	}
}

// Degraded reports whether the host's data is incomplete or absent.
func (s CollectionStatus) Degraded() bool { return s != StatusOK }

// HostCollection is the outcome of one host's harvest inside a sync run.
type HostCollection struct {
	Host   netsim.HostID
	Status CollectionStatus
	// Attempts is how many harvest RPCs were issued for this host.
	Attempts int
	// Run is the harvested data; nil when Status is Missing or Unsynced.
	Run *Run
	// HostStack is the host-stack latency run harvested by the same RPC;
	// nil when the instrument is off or the harvest failed.
	HostStack *hoststack.Run
	// Err is the last harvest error for Missing/Unsynced hosts.
	Err error
}

// Health summarizes a sync run's collection quality.
type Health struct {
	Hosts     int
	OK        int
	Truncated int
	Missing   int
	Unsynced  int
	// EffectiveWindow is the aligned common window actually produced.
	EffectiveWindow sim.Time
}

// Degraded returns the number of hosts with incomplete or absent data.
func (h Health) Degraded() int { return h.Truncated + h.Missing + h.Unsynced }

// AllOK reports whether every host harvested cleanly.
func (h Health) AllOK() bool { return h.Degraded() == 0 }

func (h Health) String() string {
	return fmt.Sprintf("%d/%d ok (%d truncated, %d missing, %d unsynced), window %v",
		h.OK, h.Hosts, h.Truncated, h.Missing, h.Unsynced, h.EffectiveWindow)
}

// ServerSeries is one server's aligned timeseries inside a SyncRun. Values
// are float64 because alignment interpolates between buckets.
type ServerSeries struct {
	Host        netsim.HostID
	Port        int
	LineRateBps int64
	// Status is the host's collection outcome; series of degraded hosts are
	// zero-filled beyond their valid region.
	Status CollectionStatus
	// ValidSamples is how many leading samples carry real data. Zero means
	// the full window for OK hosts (backward compatibility with directly
	// constructed series) and no data for Missing/Unsynced hosts.
	ValidSamples int
	// In, InRetx and Conns are the series the analysis reads: ingress
	// bytes, ingress retransmitted bytes and connections per sample. The
	// run's other counters stay on core.Run.
	In     []float64
	InRetx []float64
	Conns  []float64
}

// Utilization returns sample i's ingress utilization fraction.
func (s *ServerSeries) Utilization(i int, interval sim.Time) float64 {
	return s.In[i] * 8 / interval.Seconds() / float64(s.LineRateBps)
}

// Valid returns the number of leading samples carrying real data, resolving
// the zero-value convention against the run's sample count.
func (s *ServerSeries) Valid(samples int) int {
	switch s.Status {
	case StatusMissing, StatusUnsynced:
		return 0
	default:
		if s.Status == StatusOK && s.ValidSamples == 0 {
			return samples
		}
		if s.ValidSamples > samples {
			return samples
		}
		return s.ValidSamples
	}
}

// SyncRun is a rack-wide synchronized collection: all servers' Millisampler
// runs trimmed to their common time window and aligned by linear
// interpolation onto one uniform timebase (paper §4.4). A run may be
// partial: Health summarizes how many hosts contributed full data.
type SyncRun struct {
	Interval  sim.Time
	Samples   int
	StartWall clock.WallTime
	Servers   []ServerSeries
	Health    Health
	// HostStack is the host-stack latency collection summed over the same
	// window (Config.HostStack); nil when the instrument was off.
	HostStack *hoststack.Window
}

// Controller is SyncMillisampler's centralized control plane for one rack:
// it schedules simultaneous Millisampler runs on every server, then fetches
// and aligns the results. Harvests traverse the rack's (possibly lossy)
// control plane and survive host crashes: each host runs a small retry state
// machine with exponential backoff, bounded by a straggler deadline, and the
// result records a per-host CollectionStatus instead of assuming success.
type Controller struct {
	rack     *testbed.Rack
	cfg      Config
	samplers []*Sampler
	// taps is the per-server host-stack instrument, index-aligned with
	// samplers; nil unless Config.HostStack is set.
	taps []*StackSampler

	cols      []HostCollection
	armed     []bool
	pending   int
	scheduled bool
	done      bool
}

// The per-host harvest state machine's bounds, a production collection
// pipeline's patience.
const (
	// harvestMaxAttempts is the per-host harvest RPC budget.
	harvestMaxAttempts = 4
	// harvestBackoff is the first retry delay; it doubles per attempt.
	harvestBackoff = 2 * sim.Millisecond
	// stragglerDeadline is how long past HarvestAt the controller keeps
	// retrying before declaring a host Missing — long enough for a fast
	// reboot, short enough to not stall the schedule.
	stragglerDeadline = 80 * sim.Millisecond
)

// harvestRetry maps the harvest bounds onto the shared backoff schedule
// (internal/retry). Jitter stays zero: harvest delays feed the deterministic
// simulation, and the frozen golden digests depend on the exact schedule.
var harvestRetry = retry.Policy{
	MaxAttempts: harvestMaxAttempts,
	Base:        time.Duration(harvestBackoff),
	Factor:      2,
}

// MinLeadTime is how far in advance a sync run must be scheduled. Production
// schedules far enough ahead that no periodic run will still be active, then
// prioritizes the sync run (paper §4.4).
const MinLeadTime = 10 * sim.Millisecond

// collectGrace is how long past the nominal window the controller waits
// before harvesting, covering scheduling jitter.
const collectGrace = 5 * sim.Millisecond

// Typed controller errors.
var (
	// ErrNotHarvested is returned by Result before the harvest completes.
	ErrNotHarvested = errors.New("core: sync run not harvested yet")
	// ErrNoRuns is returned by Result (and the aligners) when a harvest
	// collected zero runs — every host Missing or Unsynced.
	ErrNoRuns = errors.New("core: harvest collected no runs")
	// ErrHarvestPending is returned by Schedule while a previous run's
	// harvest is still in flight.
	ErrHarvestPending = errors.New("core: previous harvest still pending")
)

// NewController builds a controller for the rack.
func NewController(rack *testbed.Rack, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{rack: rack, cfg: cfg}
	for _, h := range rack.Servers {
		c.samplers = append(c.samplers, NewSampler(h, cfg))
		if cfg.HostStack {
			c.taps = append(c.taps, NewStackSampler(h, cfg))
		}
	}
	return c
}

// Schedule arms the rack-wide run to start collecting at time at. The engine
// must then be driven (with workload traffic) past HarvestAt — or past
// HarvestDeadline to let retries against slow or crashed hosts conclude.
// Scheduling with insufficient lead time, or while a previous harvest is
// still pending, returns an error.
func (c *Controller) Schedule(at sim.Time) error {
	eng := c.rack.Eng
	if at < eng.Now()+MinLeadTime {
		return fmt.Errorf("core: sync run scheduled at %v with insufficient lead (now %v, need %v)",
			at, eng.Now(), MinLeadTime)
	}
	if c.scheduled && !c.done {
		return ErrHarvestPending
	}
	c.scheduled = true
	c.done = false
	c.cols = make([]HostCollection, len(c.samplers))
	c.armed = make([]bool, len(c.samplers))
	c.pending = len(c.samplers)
	for i, s := range c.samplers {
		c.cols[i] = HostCollection{Host: s.host.ID}
	}

	eng.At(at, func() {
		for i, s := range c.samplers {
			if s.host.Down() {
				// The host cannot join the synchronized start; whatever it
				// collects after rebooting would not be aligned.
				c.resolve(i, StatusUnsynced, nil, fmt.Errorf("arming sampler: %w", testbed.ErrHostDown), 0)
				continue
			}
			s.Attach()
			s.Enable()
			if c.taps != nil {
				c.taps[i].Attach()
				c.taps[i].Enable()
			}
			c.armed[i] = true
		}
	})
	harvestAt := c.HarvestAt(at)
	deadline := harvestAt + stragglerDeadline
	eng.At(harvestAt, func() {
		for i := range c.samplers {
			if c.armed[i] {
				c.attempt(i, 1, deadline)
			}
		}
	})
	return nil
}

// attempt issues harvest RPC number n for host i, retrying with exponential
// backoff until the attempt budget or the straggler deadline is exhausted.
func (c *Controller) attempt(i, n int, deadline sim.Time) {
	s := c.samplers[i]
	var run *Run
	var hsRun *hoststack.Run
	c.rack.Control.Call(s.host, func() {
		// One RPC harvests both instruments so their collection outcome is
		// atomic: a run either carries both series or neither.
		run = s.Read()
		s.Detach()
		if c.taps != nil {
			hsRun = c.taps[i].Read()
			c.taps[i].Detach()
		}
	}, func(err error) {
		if err == nil {
			// Copied out and acknowledged: no retry can re-Read the block. A
			// Missing host, which may still be armed, keeps its own.
			s.release()
			st := StatusOK
			if run.Truncated {
				st = StatusTruncated
			}
			c.cols[i].HostStack = hsRun
			c.resolve(i, st, run, nil, n)
			return
		}
		eng := c.rack.Eng
		backoff := sim.Time(harvestRetry.Delay(n, nil))
		if n >= harvestMaxAttempts || eng.Now()+backoff > deadline {
			c.resolve(i, StatusMissing, nil, err, n)
			return
		}
		eng.After(backoff, func() { c.attempt(i, n+1, deadline) })
	})
}

func (c *Controller) resolve(i int, st CollectionStatus, run *Run, err error, attempts int) {
	col := &c.cols[i]
	col.Status = st
	col.Run = run
	col.Err = err
	col.Attempts = attempts
	c.pending--
	if c.pending == 0 {
		c.done = true
	}
}

// HarvestAt returns when results for a run scheduled at `at` are first
// collected.
func (c *Controller) HarvestAt(at sim.Time) sim.Time {
	return at + c.cfg.Window() + collectGrace
}

// HarvestDeadline returns when the controller gives up on stragglers for a
// run scheduled at `at`; driving the engine past it guarantees Done.
func (c *Controller) HarvestDeadline(at sim.Time) sim.Time {
	return c.HarvestAt(at) + stragglerDeadline
}

// Samplers returns the per-server samplers in rack port order. The hybrid
// driver uses it to pin run origins (MarkStart) and apply fluid bulk
// accounting; the samplers remain owned by the controller.
func (c *Controller) Samplers() []*Sampler { return c.samplers }

// Done reports whether every host of the scheduled run has been resolved
// (harvested, or conclusively failed). It resets on each Schedule call.
func (c *Controller) Done() bool { return c.done }

// Collections returns the per-host harvest outcomes of the last run.
func (c *Controller) Collections() []HostCollection { return c.cols }

// Runs returns the raw per-host runs of the last harvest, skipping hosts
// that yielded none.
func (c *Controller) Runs() []*Run {
	var runs []*Run
	for i := range c.cols {
		if c.cols[i].Run != nil {
			runs = append(runs, c.cols[i].Run)
		}
	}
	return runs
}

// Result aligns the harvested runs into a SyncRun. Degraded hosts yield
// flagged zero series; the run's Health reports how partial the collection
// is. Result returns ErrNotHarvested before the harvest completes and
// ErrNoRuns when no host produced data.
func (c *Controller) Result() (*SyncRun, error) {
	if !c.done {
		return nil, ErrNotHarvested
	}
	ports := make([]int, len(c.cols))
	for i := range c.cols {
		p, ok := c.rack.Port(c.cols[i].Host)
		if !ok {
			return nil, fmt.Errorf("core: run host %d not in rack", c.cols[i].Host)
		}
		ports[i] = p
	}
	sr, err := AlignCollections(c.cols, ports)
	if err != nil {
		return nil, err
	}
	if c.taps != nil {
		// Reduce the host-stack runs over the grid the Millisampler alignment
		// just chose, so both instruments cover the same window.
		runs := make([]*hoststack.Run, len(c.cols))
		for i := range c.cols {
			runs[i] = c.cols[i].HostStack
		}
		sr.HostStack = hoststack.Reduce(runs, sr.StartWall, sr.Interval, sr.Samples)
	}
	return sr, nil
}

// Align trims a set of per-host runs to their common window and linearly
// interpolates each series onto the uniform timebase starting at the latest
// per-host start (paper §4.4: "to combine these runs into a single one with
// uniform timestamps, we use linear interpolation").
//
// Unstarted runs (idle hosts) contribute all-zero series and do not
// constrain the common window. Truncated runs are flagged and shrink only
// their own contribution. For harvests with missing hosts, use
// AlignCollections.
func Align(runs []*Run, ports []int) (*SyncRun, error) {
	if len(ports) != len(runs) {
		return nil, errors.New("core: ports/runs length mismatch")
	}
	cols := make([]HostCollection, len(runs))
	for i, r := range runs {
		cols[i] = HostCollection{Host: r.Host, Run: r}
		if r.Truncated {
			cols[i].Status = StatusTruncated
		}
	}
	return AlignCollections(cols, ports)
}

// AlignCollections aligns a partial harvest. Hosts with Status Missing or
// Unsynced (nil runs) yield flagged zero series; truncated runs contribute
// data up to their interruption and zeros beyond; only complete (OK,
// started) runs constrain the common window, so one bad host cannot abort —
// or shrink — the rack's collection.
func AlignCollections(cols []HostCollection, ports []int) (*SyncRun, error) {
	if len(cols) == 0 {
		return nil, ErrNoRuns
	}
	if len(ports) != len(cols) {
		return nil, errors.New("core: ports/collections length mismatch")
	}

	var interval sim.Time
	nRuns := 0
	for i := range cols {
		r := cols[i].Run
		if r == nil {
			continue
		}
		if nRuns == 0 {
			interval = r.Interval
		} else if r.Interval != interval {
			return nil, fmt.Errorf("core: mixed intervals %v and %v", interval, r.Interval)
		}
		nRuns++
	}
	if nRuns == 0 {
		return nil, ErrNoRuns
	}

	// Common window from complete runs; fall back to truncated runs when no
	// host finished cleanly (a rack-wide outage mid-run still aligns what
	// was collected).
	start, end, found := commonWindow(cols, false)
	if !found {
		start, end, found = commonWindow(cols, true)
	}
	if !found {
		return nil, errors.New("core: no run observed any traffic")
	}
	samples := int(int64(end-start) / int64(interval))
	if samples <= 0 {
		return nil, fmt.Errorf("core: no common window (start %d >= end %d)", start, end)
	}

	sr := &SyncRun{Interval: interval, Samples: samples, StartWall: start}
	sr.Health = Health{Hosts: len(cols), EffectiveWindow: interval * sim.Time(samples)}
	for i := range cols {
		col := &cols[i]
		switch col.Status {
		case StatusOK:
			sr.Health.OK++
		case StatusTruncated:
			sr.Health.Truncated++
		case StatusMissing:
			sr.Health.Missing++
		case StatusUnsynced:
			sr.Health.Unsynced++
		}
		sr.Servers = append(sr.Servers, alignOne(col, ports[i], start, interval, samples))
	}
	return sr, nil
}

// commonWindow intersects the observation windows of the constraining runs:
// complete runs normally, truncated runs when truncatedOnly is set.
func commonWindow(cols []HostCollection, truncatedOnly bool) (start, end clock.WallTime, found bool) {
	for i := range cols {
		r := cols[i].Run
		if r == nil || !r.Started {
			continue
		}
		if (cols[i].Status == StatusTruncated) != truncatedOnly {
			continue
		}
		if truncatedOnly && r.ValidBuckets <= 0 {
			continue
		}
		s, e := r.StartWall, r.EndWall()
		if !found {
			start, end, found = s, e, true
			continue
		}
		if s > start {
			start = s
		}
		if e < end {
			end = e
		}
	}
	return start, end, found
}

// alignOne produces one host's aligned series. The three series share one
// backing array, each capped at its own end so an append by a consumer
// cannot spill into the next; samples beyond the host's covered region stay
// zero.
func alignOne(col *HostCollection, port int, start clock.WallTime, interval sim.Time, samples int) ServerSeries {
	ss := ServerSeries{Port: port, Status: col.Status, Host: col.Host}
	r := col.Run
	if r != nil {
		ss.Host = r.Host
		ss.LineRateBps = r.LineRateBps
	}
	buf := make([]float64, 3*samples)
	for k, dst := range [...]*[]float64{&ss.In, &ss.InRetx, &ss.Conns} {
		*dst = buf[k*samples : (k+1)*samples : (k+1)*samples]
	}
	if r == nil || !r.Started {
		if col.Status == StatusOK {
			ss.ValidSamples = samples // idle but healthy: zeros are real data
		}
		return ss
	}

	valid := r.Buckets
	if r.Truncated {
		valid = r.ValidBuckets
	}
	if valid <= 0 {
		return ss
	}

	// Offset of the common origin within this host's bucket grid, and the
	// number of aligned samples the host's valid data covers.
	off := float64(int64(start-r.StartWall)) / float64(interval)
	covered := samples
	if r.Truncated {
		validEnd := r.StartWall + clock.WallTime(int64(interval)*int64(valid))
		covered = int(int64(validEnd-start) / int64(interval))
		if covered < 0 {
			covered = 0
		}
		if covered > samples {
			covered = samples
		}
	}
	ss.ValidSamples = covered
	interpolate(ss.In[:covered], r.Bytes[CtrIn][:valid], off)
	interpolate(ss.InRetx[:covered], r.Bytes[CtrInRetx][:valid], off)
	if r.Conns != nil {
		interpolate(ss.Conns[:covered], r.Conns[:valid], off)
	}
	return ss
}

// interpolate fills out with src resampled at positions off, off+1, ... by
// linear interpolation between adjacent buckets; positions outside the
// source grid clamp to its edge values.
func interpolate[T uint64 | float64](out []float64, src []T, off float64) {
	for j := range out {
		pos := off + float64(j)
		i := int(pos)
		frac := pos - float64(i)
		switch {
		case i < 0:
			out[j] = float64(src[0])
		case i >= len(src)-1:
			out[j] = float64(src[len(src)-1])
		default:
			out[j] = float64(src[i])*(1-frac) + float64(src[i+1])*frac
		}
	}
}
