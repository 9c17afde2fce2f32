package sweep

import (
	"repro/internal/fleet"
)

// Tally accumulates the counterfactual outputs of a set of rack-hours. All
// fields but SumAvgContention are order-independent sums (or a max), and the
// engine folds per-rack tallies in the fixed BuildRacks order, so a tally is
// byte-deterministic regardless of worker count and scheduling.
type Tally struct {
	// Runs counts rack-hours; FailedRuns how many failed to simulate (the
	// rest collected an aligned window).
	Runs       int `json:"runs"`
	FailedRuns int `json:"failed_runs,omitempty"`

	// Switch counter movement across the sampled windows.
	EnqueuedBytes  int64 `json:"enqueued_bytes"`
	DiscardBytes   int64 `json:"discard_bytes"`
	DiscardSegs    int64 `json:"discard_segs"`
	ECNMarkedBytes int64 `json:"ecn_marked_bytes"`
	ECNMarkedSegs  int64 `json:"ecn_marked_segs"`
	DequeuedBytes  int64 `json:"dequeued_bytes"`

	// Burst decomposition of the raw runs. A burst is truncated when it was
	// still in flight at its server's last valid sample — the window closed
	// mid-burst, so its length and volume are lower bounds.
	Bursts          int64 `json:"bursts"`
	LossyBursts     int64 `json:"lossy_bursts"`
	TruncatedBursts int64 `json:"truncated_bursts"`

	// PeakQueueBytes is the highest single-queue occupancy any rack-hour
	// reached — the burst-absorption headroom figure that separates the
	// sharing policies.
	PeakQueueBytes int `json:"peak_queue_bytes"`

	// SumAvgContention sums each collected run's average contention; divide
	// by collected runs for the mean.
	SumAvgContention float64 `json:"sum_avg_contention"`
}

// add folds another tally in (sums, except the peak which is a max).
func (t *Tally) add(o Tally) {
	t.Runs += o.Runs
	t.FailedRuns += o.FailedRuns
	t.EnqueuedBytes += o.EnqueuedBytes
	t.DiscardBytes += o.DiscardBytes
	t.DiscardSegs += o.DiscardSegs
	t.ECNMarkedBytes += o.ECNMarkedBytes
	t.ECNMarkedSegs += o.ECNMarkedSegs
	t.DequeuedBytes += o.DequeuedBytes
	t.Bursts += o.Bursts
	t.LossyBursts += o.LossyBursts
	t.TruncatedBursts += o.TruncatedBursts
	if o.PeakQueueBytes > t.PeakQueueBytes {
		t.PeakQueueBytes = o.PeakQueueBytes
	}
	t.SumAvgContention += o.SumAvgContention
}

// LossPct is discarded bytes as a percentage of bytes offered to the rack's
// downlink queues.
func (t Tally) LossPct() float64 {
	offered := t.EnqueuedBytes + t.DiscardBytes
	if offered == 0 {
		return 0
	}
	return 100 * float64(t.DiscardBytes) / float64(offered)
}

// ECNPct is ECN-marked bytes as a percentage of enqueued bytes.
func (t Tally) ECNPct() float64 {
	if t.EnqueuedBytes == 0 {
		return 0
	}
	return 100 * float64(t.ECNMarkedBytes) / float64(t.EnqueuedBytes)
}

// LossyBurstPct is the share of bursts that saw loss.
func (t Tally) LossyBurstPct() float64 {
	if t.Bursts == 0 {
		return 0
	}
	return 100 * float64(t.LossyBursts) / float64(t.Bursts)
}

// TruncatedBurstPct is the share of bursts cut off by the window edge.
func (t Tally) TruncatedBurstPct() float64 {
	if t.Bursts == 0 {
		return 0
	}
	return 100 * float64(t.TruncatedBursts) / float64(t.Bursts)
}

// AvgContention is the mean per-run average contention.
func (t Tally) AvgContention() float64 {
	collected := t.Runs - t.FailedRuns
	if collected == 0 {
		return 0
	}
	return t.SumAvgContention / float64(collected)
}

// PointResult is one executed grid point: the override plus its aggregated
// metrics, fleet-wide and per baseline contention class. Class keys are
// fleet.Class names; classification always comes from the baseline point, so
// a rack stays in the same class across every counterfactual and the deltas
// compare like with like.
type PointResult struct {
	Point
	Total   Tally            `json:"total"`
	Classes map[string]Tally `json:"classes"`
}

// tallyRun folds one rack-hour, as fleet.RunHour reduced it, into its tally,
// whose SumAvgContention is the run's average contention. A failed rack-hour
// is a recorded gap, exactly as in the dataset: a failed run that competes
// for the busy-hour slot with zero contention.
func tallyRun(run fleet.RunSummary, sc fleet.SwitchCounters, truncated int) Tally {
	if !run.Collected {
		return Tally{Runs: 1, FailedRuns: 1}
	}
	d := sc.Delta()
	t := Tally{
		Runs:             1,
		EnqueuedBytes:    d.EnqueuedBytes,
		DiscardBytes:     d.DiscardBytes,
		DiscardSegs:      d.DiscardSegments,
		ECNMarkedBytes:   d.ECNMarkedBytes,
		ECNMarkedSegs:    d.ECNMarkedSegs,
		DequeuedBytes:    d.DequeuedBytes,
		PeakQueueBytes:   sc.PeakQueueBytes,
		Bursts:           int64(len(run.Bursts)),
		TruncatedBursts:  int64(truncated),
		SumAvgContention: run.AvgContention,
	}
	for _, b := range run.Bursts {
		if b.Lossy {
			t.LossyBursts++
		}
	}
	return t
}
