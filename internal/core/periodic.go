package core

import (
	"errors"

	"repro/internal/sim"
)

// ProductionIntervals are the three deployed sampling intervals (paper §4.1:
// "we schedule runs with three values: 10ms, 1ms, and 100µs"); with the fixed
// 2000-bucket budget one host is observed at 20 s, 2 s and 200 ms windows.
var ProductionIntervals = []sim.Time{
	10 * sim.Millisecond,
	sim.Millisecond,
	100 * sim.Microsecond,
}

// Periodic drives Millisampler the way the production user-space component
// does on every host (paper §4.1): occasionally attach the filter, run one
// collection window, wait for the enabled flag to clear, detach, hand the
// aggregated counters to storage, and schedule the next run. With several
// samplers (one per resolution, e.g. ProductionIntervals) it rotates through
// them in order, one run each.
type Periodic struct {
	Samplers []*Sampler
	// Period is the idle time between one run's harvest and the next run's
	// arming; occasional execution keeps the amortized overhead negligible.
	// Runs therefore start Period + window + collectGrace apart.
	Period sim.Time
	// Store receives each harvested run.
	Store func(*Run)

	stopped bool
	next    int
	runs    int
}

// Start begins the schedule on the samplers' engine, with the first run
// armed after one period.
func (p *Periodic) Start() error {
	if len(p.Samplers) == 0 {
		return errors.New("core: periodic schedule needs a sampler")
	}
	if p.Period <= 0 {
		return errors.New("core: periodic sampler needs a positive period")
	}
	p.stopped = false
	p.scheduleNext()
	return nil
}

// Stop halts future runs after the current one completes.
func (p *Periodic) Stop() { p.stopped = true }

// Runs returns how many runs completed.
func (p *Periodic) Runs() int { return p.runs }

func (p *Periodic) scheduleNext() {
	s := p.Samplers[p.next]
	p.next = (p.next + 1) % len(p.Samplers)
	eng := s.host.Engine()
	eng.After(p.Period, func() {
		if p.stopped {
			return
		}
		s.Attach()
		s.Enable()
		// User code waits until the expected run time has passed and the
		// enabled flag clears, then reads and detaches.
		eng.After(s.cfg.Window()+collectGrace, func() {
			run := s.Read()
			s.Detach()
			p.runs++
			if p.Store != nil {
				p.Store(run)
			}
			if !p.stopped {
				p.scheduleNext()
			}
		})
	})
}
