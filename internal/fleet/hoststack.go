package fleet

import (
	"repro/internal/hoststack"
)

// HostStackRec is the dataset-resident reduction of one rack-hour's
// host-stack latency collection (Config.HostStack). It is a pointer field on
// RunSummary tagged omitempty: with the instrument off the field is nil, the
// summary's JSON is byte-identical to pre-knob datasets, and every golden
// digest is preserved.
type HostStackRec struct {
	// Hosts is how many servers contributed host-stack data.
	Hosts int
	// InSegs / EgSegs are total observed segments per direction.
	InSegs uint64
	EgSegs uint64
	// InBins / EgBins are the rack-wide latency histograms over the aligned
	// window (log-spaced, hoststack.NumBins log2-µs bins).
	InBins [hoststack.NumBins]uint64
	EgBins [hoststack.NumBins]uint64
	// Window quantiles of the ingress (front door) and egress delay, µs.
	InP50Us  float64
	InP99Us  float64
	InP999Us float64
	EgP99Us  float64
	// MaxMsInP99Us is the worst single-millisecond ingress p99 across all
	// servers and aligned samples — the instrument's burst-scale tail.
	MaxMsInP99Us float64
}

// hostStackRec turns a rack-hour's host-stack window into its record.
func hostStackRec(w *hoststack.Window) *HostStackRec {
	rec := &HostStackRec{Hosts: w.Hosts, InBins: w.In, EgBins: w.Eg, MaxMsInP99Us: w.MaxInP99Us}
	for _, v := range w.In {
		rec.InSegs += v
	}
	for _, v := range w.Eg {
		rec.EgSegs += v
	}
	rec.InP50Us, _ = hoststack.QuantileUs(w.In[:], 0.50)
	rec.InP99Us, _ = hoststack.QuantileUs(w.In[:], 0.99)
	rec.InP999Us, _ = hoststack.QuantileUs(w.In[:], 0.999)
	rec.EgP99Us, _ = hoststack.QuantileUs(w.Eg[:], 0.99)
	return rec
}

// ShareAboveUs returns the fraction of ingress segments whose host-stack
// delay reached at least us microseconds (a power of two; other values round
// down to the containing bin's lower bound).
func (r *HostStackRec) ShareAboveUs(us float64) float64 {
	if r.InSegs == 0 {
		return 0
	}
	var above uint64
	for b := 0; b < hoststack.NumBins; b++ {
		if hoststack.BinUpperUs(b) > us {
			above += r.InBins[b]
		}
	}
	return float64(above) / float64(r.InSegs)
}
