package core

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Run is one completed Millisampler collection on one host: the timeseries
// the user-space component copies out of the counter block and stores to
// local disk.
type Run struct {
	Host     netsim.HostID
	Interval sim.Time
	Buckets  int
	// Started reports whether any packet arrived during the run; an idle
	// host yields an unstarted run with zeroed series.
	Started bool
	// StartWall is the host-clock timestamp of the first packet.
	StartWall clock.WallTime
	// LineRateBps is the host's allocated link rate, the denominator of the
	// burst threshold.
	LineRateBps int64
	// Truncated reports that collection was interrupted (host crash) before
	// the window completed; only the first ValidBuckets buckets carry data.
	Truncated bool
	// ValidBuckets is the number of complete buckets collected before the
	// interruption. Meaningful only when Truncated.
	ValidBuckets int
	// Bytes holds one series per counter kind (CtrIn..CtrInECN).
	Bytes [NumCounters][]uint64
	// Conns is the per-bucket connection estimate (nil when flow counting
	// was disabled).
	Conns []float64
}

// EndWall returns the host-clock end of the observation window — the nominal
// window for complete runs, the interruption point for truncated ones.
func (r *Run) EndWall() clock.WallTime {
	buckets := r.Buckets
	if r.Truncated {
		buckets = r.ValidBuckets
	}
	return r.StartWall + clock.WallTime(int64(r.Interval)*int64(buckets))
}

// Series returns the byte series of one counter kind.
func (r *Run) Series(kind int) []uint64 {
	if kind < 0 || kind >= NumCounters {
		panic(fmt.Sprintf("core: no counter kind %d", kind))
	}
	return r.Bytes[kind]
}

// RateBps converts bucket i of a counter kind into bits per second.
func (r *Run) RateBps(kind, i int) float64 {
	return float64(r.Bytes[kind][i]) * 8 / r.Interval.Seconds()
}

// Utilization returns bucket i's ingress utilization as a fraction of line
// rate; this is the quantity the burst definition thresholds at 50%.
func (r *Run) Utilization(i int) float64 {
	return r.RateBps(CtrIn, i) / float64(r.LineRateBps)
}

// TotalBytes sums a counter series.
func (r *Run) TotalBytes(kind int) uint64 {
	var t uint64
	for _, v := range r.Bytes[kind] {
		t += v
	}
	return t
}

// BucketBytesAtRate returns the byte count per bucket corresponding to a
// utilization fraction of the line rate, i.e. the burst threshold in bytes.
func (r *Run) BucketBytesAtRate(frac float64) uint64 {
	return uint64(frac * float64(r.LineRateBps) / 8 * r.Interval.Seconds())
}
