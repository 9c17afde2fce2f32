package hoststack

import (
	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Window is a rack's host-stack collection summed over a SyncRun's aligned
// window: the one record a rack-hour keeps of the instrument.
type Window struct {
	// Hosts counts the runs that contributed data.
	Hosts int
	// In / Eg are the rack-wide latency histograms per direction.
	In, Eg [NumBins]uint64
	// MaxInP99Us is the worst ingress p99 of any single host bucket inside
	// the window, µs.
	MaxInP99Us float64
}

// Reduce sums harvested host-stack runs over a SyncRun's grid (start,
// interval, samples — take them from the Millisampler alignment so both
// instruments cover the same window). runs[i] may be nil for hosts whose
// harvest failed. Histogram buckets cannot be interpolated the way byte
// counters can, so aligned sample j reads the run's nearest bucket; on the
// shared grid both instruments start together and the mapping is exact.
func Reduce(runs []*Run, start clock.WallTime, interval sim.Time, samples int) *Window {
	w := &Window{}
	for _, r := range runs {
		if r == nil || !r.Started || r.Interval != interval {
			continue
		}
		valid := r.Buckets
		if r.Truncated {
			valid = r.ValidBuckets
		}
		if valid <= 0 {
			continue
		}
		w.Hosts++
		// The bucket nearest aligned sample 0; 0 for a run that started
		// exactly at the common origin.
		off := int((int64(start-r.StartWall) + int64(interval)/2) / int64(interval))
		for b := max(off, 0); b < min(off+samples, valid); b++ {
			in := r.Bucket(netsim.Ingress, b)
			for bin, v := range in {
				w.In[bin] += uint64(v)
			}
			for bin, v := range r.Bucket(netsim.Egress, b) {
				w.Eg[bin] += uint64(v)
			}
			if p, ok := bucketQuantileUs(in, 0.99); ok && p > w.MaxInP99Us {
				w.MaxInP99Us = p
			}
		}
	}
	return w
}
