package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fleet"
	"repro/internal/sweep"
	"repro/internal/switchsim"
)

// Pinned sealed ResultDigests of the zoo sweep, by -short.
var zooDigests = map[bool]string{
	false: "e3eeea699f417b4913677d66e379b2b402ec0145d87b7d77e361ce14d10ed299",
	true:  "02bf88ef71a81db43200644a9f78831b00453d8c9156921a280eb0db6a9cee20",
}

// zooSpec is the policy-zoo sweep: all five sharing policies times three
// alphas, which canonicalise to nine points (alpha means nothing to static,
// complete and bshare), over a hybrid-fidelity fleet of one rack per region
// at a busy and a quiet hour. bshare and abm are not hybrid-compatible and run
// on the packet engine. The fleet is sized so that a block of nine points
// takes about a second and a half and a dozen blocks fit in a run.
func zooSpec(short bool) sweep.Spec {
	base := fleet.Config{
		Seed:           2022,
		RacksPerRegion: 1,
		ServersPerRack: 24,
		Hours:          []int{6, 14},
		Buckets:        200,
		Fidelity:       fleet.FidelityHybrid,
	}
	if short {
		base = shorten(base)
		base.Hours = []int{6}
	}
	return sweep.Spec{
		Name:  "zoo",
		Fleet: base,
		Policies: []switchsim.Policy{
			switchsim.PolicyDT, switchsim.PolicyStatic, switchsim.PolicyComplete,
			switchsim.PolicyBShare, switchsim.PolicyABM,
		},
		Alphas: []float64{0.5, 1, 2},
	}
}

// sweepWorkload is sweep-zoo: sweep.Run into a fresh store. One op is one
// committed point, seen through Options.Progress; a call is the interval
// between two consecutive commits.
type sweepWorkload struct {
	short bool
	work  string
	n     int
}

func (s *sweepWorkload) Close()         {}
func (s *sweepWorkload) Pinned() string { return zooDigests[s.short] }

func (s *sweepWorkload) Setup(e *env) error {
	s.work = e.work
	s.short = e.short
	if err := os.RemoveAll(s.work); err != nil {
		return err
	}
	if err := os.MkdirAll(s.work, 0o755); err != nil {
		return err
	}
	_, err := s.Block(nil)
	return err
}

func (s *sweepWorkload) Block(tr *Tracer) (*block, error) {
	s.n++
	dir := filepath.Join(s.work, fmt.Sprintf("zoo-%d", s.n))
	defer os.RemoveAll(dir)
	res, b, err := runZoo(tr, dir, zooSpec(s.short))
	if err != nil {
		return nil, err
	}
	b.Check = res.Manifest.ResultDigest
	return b, nil
}

// runZoo executes spec into dir on one worker and times it point by point.
func runZoo(tr *Tracer, dir string, spec sweep.Spec) (*sweep.Result, *block, error) {
	blk := tr.Begin("block", -1)
	m := newMarker(tr)
	op := 0
	run := tr.Begin("sweep.Run", -1)
	span := tr.Begin("sweep.point", 0)
	res, err := sweep.Run(context.Background(), dir, spec, sweep.Options{
		Workers: 1,
		Progress: func(sweep.Progress) {
			tr.End(span)
			m.mark(true)
			op++
			span = tr.Begin("sweep.point", op)
		},
	})
	// What follows the last commit is the seal and the verifying reload.
	tr.Rename(span, "sweep.seal_open", -1)
	tr.End(span)
	tr.End(run)
	if err != nil {
		return nil, nil, err
	}
	m.mark(false)
	tr.End(blk)

	b := m.block()
	if b.Bytes, err = dirBytes(dir); err != nil {
		return nil, nil, err
	}
	if len(b.Calls) != len(res.Points) {
		return nil, nil, fmt.Errorf("progress reported %d points, result has %d", len(b.Calls), len(res.Points))
	}
	return res, b, nil
}
