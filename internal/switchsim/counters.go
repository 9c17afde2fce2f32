package switchsim

import "repro/internal/sim"

// CounterSample is one SNMP-style polling interval's delta for one queue.
// Production switches in the studied fleet expose traffic volume and
// congestion-discard statistics at one-minute granularity (paper §7.2);
// Figures 14 and 17 are built from exactly these counters.
type CounterSample struct {
	At           sim.Time // end of the interval
	Port         int
	IngressBytes int64 // bytes enqueued toward the server in the interval
	DiscardBytes int64
	DiscardSegs  int64
}

// Poller snapshots per-queue counters at a fixed period.
type Poller struct {
	sw      *Switch
	period  sim.Time
	prev    []QueueStats
	Samples []CounterSample
	stopped bool
}

// NewPoller creates a poller; production period is one minute, tests may use
// shorter periods. Call Start to begin sampling.
func NewPoller(sw *Switch, period sim.Time) *Poller {
	return &Poller{sw: sw, period: period, prev: make([]QueueStats, sw.cfg.Ports)}
}

// Start schedules periodic snapshots on the switch's engine.
func (p *Poller) Start() {
	var tick func()
	tick = func() {
		if p.stopped {
			return
		}
		p.poll()
		p.sw.eng.After(p.period, tick)
	}
	p.sw.eng.After(p.period, tick)
}

// Stop halts future snapshots.
func (p *Poller) Stop() { p.stopped = true }

// poll records one delta sample per queue.
func (p *Poller) poll() {
	now := p.sw.eng.Now()
	for port := range p.sw.queues {
		cur := p.sw.QueueStats(port)
		prev := p.prev[port]
		p.Samples = append(p.Samples, CounterSample{
			At:           now,
			Port:         port,
			IngressBytes: cur.EnqueuedBytes - prev.EnqueuedBytes,
			DiscardBytes: cur.DiscardBytes - prev.DiscardBytes,
			DiscardSegs:  cur.DiscardSegments - prev.DiscardSegments,
		})
		p.prev[port] = cur
	}
}
