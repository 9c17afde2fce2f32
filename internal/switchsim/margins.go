package switchsim

import "math"

// Margins is a switch's record of the sharing rules its run has not told
// apart from its own. Each admission that had room bounds the parameters that
// would have answered it alike: α for DT and ABM, the quota for static
// partitioning and BShare, and, for complete sharing, whether any threshold
// test refused. A rule reaches the rest of the simulation only through its
// answers, so a switch with a rule inside the margins would have held the
// same pool and been asked the same questions: its run is this run, byte for
// byte.
type Margins struct {
	cfg              Config  // the switch's own, Pool cleared
	alphaLo, alphaHi float64 // α in [alphaLo, alphaHi) answers alike
	quotaLo, quotaHi int     // so does a quota in [quotaLo, quotaHi); a refusal sets quotaHi
}

// Margins returns the switch's margins so far.
func (s *Switch) Margins() Margins { return s.margins }

// Alike reports whether a switch configured as cfg would have answered every
// admission of the run as this one did. cfg may differ from the switch's
// configuration only in Policy, Alpha and BShareDelayTarget (after defaults);
// anything else changes the switch beyond its answers, so it never matches.
func (m Margins) Alike(cfg Config) bool {
	if cfg.Validate() != nil {
		return false
	}
	cfg = cfg.withDefaults()
	mine := m.cfg
	mine.Policy, mine.Alpha, mine.BShareDelayTarget, cfg.Pool = cfg.Policy, cfg.Alpha, cfg.BShareDelayTarget, nil
	if mine != cfg {
		return false
	}
	sharedCap, queuesPerQuad := cfg.pool()
	r := newRule(cfg, sharedCap, queuesPerQuad)
	switch cfg.Policy {
	case PolicyDT, PolicyABM:
		return m.alphaLo <= r.alpha && r.alpha < m.alphaHi
	case PolicyComplete:
		return m.quotaHi == math.MaxInt
	default:
		return m.quotaLo <= r.quota && r.quota < m.quotaHi
	}
}

// alphaBound is the least α whose DT limit over free bytes reaches n. The
// rule tests n <= int(α·float64(free)), so the float product decides, not
// the real quotient: n/free itself may sit one float to either side.
func alphaBound(n, free int) float64 {
	fn, ff := float64(n), float64(free)
	a := fn / ff
	for a*ff < fn {
		a = math.Nextafter(a, math.Inf(1))
	}
	for b := math.Nextafter(a, 0); b*ff >= fn; b = math.Nextafter(b, 0) {
		a = b
	}
	return a
}
