package switchsim

import (
	"fmt"

	"repro/internal/sim"
)

// Shadow is an alternative sharing policy riding along a switch: a full
// instance of another configuration's policy per quadrant, fed every Admit,
// Release and OnDequeue call the switch makes of its own policy. A sharing
// policy reaches the rest of the simulation only through Admit's answers, so
// while the shadow has agreed with every one of them, a switch configured
// with the shadow's policy would have received exactly the same calls — by
// induction over events, its run is this run, byte for byte. The first
// disagreement marks the shadow diverged and it stops listening.
type Shadow struct {
	policies [Quadrants]SharingPolicy
	diverged bool
}

// Diverged reports whether some admission decision of the shadow's policy
// differed from the switch's own.
func (sh *Shadow) Diverged() bool { return sh.diverged }

// Shadow attaches a shadow of cfg's sharing policy to the switch. cfg may
// differ from the switch's configuration only in Policy, Alpha and
// BShareDelayTarget (after defaults); anything else changes the switch
// beyond its admission answers, so it is refused. The first call wraps the
// quadrant policies, so a switch never shadowed keeps its direct dispatch.
// Attach shadows before traffic flows.
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
	sh := &Shadow{}
	build := lookupPolicy(cfg.Policy).build
	for q := range s.policies {
		sh.policies[q] = build(cfg, s.policies[q].Cap(), s.queuesPerQuadrant)
		tee, ok := s.policies[q].(*teePolicy)
		if !ok {
			tee = &teePolicy{SharingPolicy: s.policies[q], quadrant: q}
			s.policies[q] = tee
		}
		tee.shadows = append(tee.shadows, sh)
	}
	return sh, nil
}

// teePolicy is one quadrant's policy with shadows attached: the embedded
// primary answers, and every shadow still agreeing hears the same call.
type teePolicy struct {
	SharingPolicy
	quadrant int
	shadows  []*Shadow
}

func (t *teePolicy) Admit(qi, queueShared, size int, now sim.Time) bool {
	ok := t.SharingPolicy.Admit(qi, queueShared, size, now)
	for _, sh := range t.shadows {
		if !sh.diverged && sh.policies[t.quadrant].Admit(qi, queueShared, size, now) != ok {
			sh.diverged = true
		}
	}
	return ok
}

func (t *teePolicy) Release(size int) {
	t.SharingPolicy.Release(size)
	for _, sh := range t.shadows {
		if !sh.diverged {
			sh.policies[t.quadrant].Release(size)
		}
	}
}

func (t *teePolicy) OnDequeue(qi, size, remaining int, now sim.Time) {
	t.SharingPolicy.OnDequeue(qi, size, remaining, now)
	for _, sh := range t.shadows {
		if !sh.diverged {
			sh.policies[t.quadrant].OnDequeue(qi, size, remaining, now)
		}
	}
}
