// Package hoststack is the data side of the repository's second instrument,
// the netstacklat-style host-stack latency tap (core.StackSampler, "Waiting
// at the front door", arXiv 2606.02057): the latency bins, the harvested Run,
// quantile estimates, and the rack-wide Window a SyncRun's grid reduces the
// runs to.
//
// Latencies are binned into log-spaced buckets (netstacklat-style): bin 0 is
// <1 µs, bin k covers [2^(k-1), 2^k) µs, the last bin collects everything
// ≥ 2^(NumBins-2) µs (~65 ms).
package hoststack

import (
	"math/bits"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// NumDirs is the number of observed directions (netsim.Ingress, Egress).
const NumDirs = 2

// NumBins is the number of log-spaced latency bins per (direction, time
// bucket) cell: <1 µs, then powers of two up to the ≥65 ms overflow bin.
const NumBins = 18

// Bin maps a latency span onto its histogram bin.
func Bin(d sim.Time) int {
	if d < sim.Microsecond {
		return 0
	}
	b := bits.Len64(uint64(d / sim.Microsecond))
	if b > NumBins-1 {
		b = NumBins - 1
	}
	return b
}

// BinUpperUs returns bin b's exclusive upper bound in microseconds (the
// value quantile estimates report). The overflow bin reports its lower
// bound, the only finite statement it can make.
func BinUpperUs(b int) float64 {
	if b >= NumBins-1 {
		return float64(uint64(1) << (NumBins - 2))
	}
	return float64(uint64(1) << b)
}

// Run is one completed host-stack collection on one host: the
// per-direction, per-time-bucket latency histograms core.StackSampler.Read
// harvests.
type Run struct {
	Host     netsim.HostID
	Interval sim.Time
	Buckets  int
	// Started reports whether any segment was observed while enabled.
	Started   bool
	StartWall clock.WallTime
	// Truncated / ValidBuckets come from the run window core.Run's do.
	Truncated    bool
	ValidBuckets int
	// Bins[dir] holds Buckets × NumBins counts, bucket-major.
	Bins [NumDirs][]uint32
}

// Bucket returns the latency histogram of one (direction, time bucket)
// cell.
func (r *Run) Bucket(dir netsim.Direction, bucket int) []uint32 {
	return r.Bins[int(dir)][bucket*NumBins : (bucket+1)*NumBins]
}

// Totals sums a direction's histograms over the whole window.
func (r *Run) Totals(dir netsim.Direction) [NumBins]uint64 {
	var out [NumBins]uint64
	src := r.Bins[int(dir)]
	for i, v := range src {
		out[i%NumBins] += uint64(v)
	}
	return out
}

// QuantileUs estimates quantile q (0..1) in microseconds from a latency
// histogram: the upper bound of the first bin at which the cumulative count
// reaches q. The second result is false when the histogram is empty.
func QuantileUs(bins []uint64, q float64) (float64, bool) {
	var total uint64
	for _, v := range bins {
		total += v
	}
	if total == 0 {
		return 0, false
	}
	// Rank rounds up: the quantile is the first bin at which at least
	// ceil(q·total) observations have accumulated.
	need := uint64(q * float64(total))
	if float64(need) < q*float64(total) {
		need++
	}
	if need < 1 {
		need = 1
	}
	var cum uint64
	for b, v := range bins {
		cum += v
		if cum >= need {
			return BinUpperUs(b), true
		}
	}
	return BinUpperUs(len(bins) - 1), true
}

// bucketQuantileUs is QuantileUs over one time bucket's uint32 cell.
func bucketQuantileUs(cell []uint32, q float64) (float64, bool) {
	var bins [NumBins]uint64
	for i, v := range cell {
		bins[i] = uint64(v)
	}
	return QuantileUs(bins[:], q)
}
