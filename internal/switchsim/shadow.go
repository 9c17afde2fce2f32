package switchsim

import "fmt"

// Shadow is an alternative sharing rule riding along a switch: every
// admission the switch decides, it also puts to the shadow's rule, on the
// switch's own pool. A sharing rule reaches the rest of the simulation only
// through its answers, so while the shadow has agreed with every one of them,
// a switch configured with the shadow's rule would have held the same pool
// and received exactly the same questions — by induction over events, its
// run is this run, byte for byte. The first disagreement marks the shadow
// diverged and it is asked no more.
type Shadow struct {
	rule     rule
	diverged bool
}

// Diverged reports whether some admission decision of the shadow's rule
// differed from the switch's own.
func (sh *Shadow) Diverged() bool { return sh.diverged }

// Shadow attaches a shadow of cfg's sharing rule to the switch. cfg may
// differ from the switch's configuration only in Policy, Alpha and
// BShareDelayTarget (after defaults); anything else changes the switch
// beyond its admission answers, so it is refused. Attach shadows before
// traffic flows.
func (s *Switch) Shadow(cfg Config) (*Shadow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	mine, theirs := s.cfg, cfg
	mine.Pool, theirs.Pool = nil, nil
	mine.Policy, mine.Alpha, mine.BShareDelayTarget = theirs.Policy, theirs.Alpha, theirs.BShareDelayTarget
	if mine != theirs {
		return nil, fmt.Errorf("switchsim: a shadow may differ only in policy, alpha and BShare delay target")
	}
	sh := &Shadow{rule: newRule(cfg, s.sharedCap, s.queuesPerQuadrant)}
	s.shadows = append(s.shadows, sh)
	return sh, nil
}
