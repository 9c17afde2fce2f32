package testbed

import (
	"errors"
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Control-plane errors. Both are retryable from the caller's point of view:
// a failed RPC may succeed on the next attempt, and a down host may reboot.
var (
	// ErrHostDown is returned when the target host is crashed at the time
	// the RPC would be delivered.
	ErrHostDown = errors.New("testbed: host unreachable")
	// ErrRPCFailed is returned when the control-plane itself loses the
	// request or response (seeded random failure).
	ErrRPCFailed = errors.New("testbed: control rpc failed")
)

// A successful control RPC takes controlRTT round trip; a lost or
// unreachable one is reported to the caller controlTimeout after the call.
const (
	controlRTT     = 200 * sim.Microsecond
	controlTimeout = 2 * sim.Millisecond
)

// ControlPlane models the collection RPC path between the rack controller
// and its servers. Unlike the data plane it does not traverse the simulated
// switch: production control traffic uses a separate management network, so
// only its failure and latency behaviour matters here.
type ControlPlane struct {
	eng      *sim.Engine
	failProb float64
	rng      *sim.RNG

	// Calls counts issued RPCs; Failures those lost in the control plane;
	// Unreachable those that found the host down.
	Calls       int64
	Failures    int64
	Unreachable int64
}

// NewControlPlane builds a control plane on the engine that loses each RPC
// with probability failProb, drawn from its own seeded RNG stream so fault
// outcomes are independent of data-plane randomness.
func NewControlPlane(eng *sim.Engine, failProb float64, rng *sim.RNG) *ControlPlane {
	return &ControlPlane{eng: eng, failProb: failProb, rng: rng}
}

// Call issues an RPC against host h. On success, op runs at delivery time on
// the host and done(nil) fires one RTT after the call. On a control-plane
// loss or a down host, done fires with the error after controlTimeout; op does not run. done must not be nil; op may be.
func (cp *ControlPlane) Call(h *netsim.Host, op func(), done func(error)) {
	cp.Calls++
	if cp.failProb > 0 && cp.rng.Bool(cp.failProb) {
		cp.Failures++
		cp.eng.After(controlTimeout, func() { done(ErrRPCFailed) })
		return
	}
	cp.eng.After(controlRTT/2, func() {
		if h.Down() {
			cp.Unreachable++
			cp.eng.After(controlTimeout-controlRTT/2, func() {
				done(fmt.Errorf("host %d: %w", h.ID, ErrHostDown))
			})
			return
		}
		if op != nil {
			op()
		}
		cp.eng.After(controlRTT-controlRTT/2, func() { done(nil) })
	})
}
