package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/dataset"
	"repro/internal/fleet"
)

// Pinned digests of Dataset.Digest() for the generation configs below. The
// full-fidelity small preset is internal/fleet's goldenSmallDigest.
var genDigests = map[string]string{
	"full/5":   "9808ac8afa7c492918e3efb633a89101f5f00d30c1f978a220b411933fa04d96",
	"hybrid/5": "5851a0f5e5346e522fa06803aa005547a4dad67c711cc1cf335599dbff4babd0",
	"full/1":   "8d736d5a1446b8fa0c139e2e9df231b7d2a1c5bf61824942637979b969db80e4",
	// -short sizes (see shorten).
	"full/1-short":   "f10f362b739986d78bbadb9dd9db1e3fe7222e0ff0b0084e3c1d96efd5bf2637",
	"hybrid/1-short": "ab150632dbc56196f555aaa66db2f1ef02fa3dc3f2e3a6651e4cb21994eed104",
	"hybrid/5-short": "3559c23cb5ace53efca074717329a81aad5d9ad37539a3c025c4d945ffa87f60",
}

// genConfig is fleet.SmallConfig at the given fidelity and rack count, on
// one worker so that no scheduling is in the numbers and the sink sees the
// rack-hours strictly one after the other. The simulator's seed stays the
// preset's 2022 whatever -seed says, so the golden digests hold.
func genConfig(fidelity string, racksPerRegion int) fleet.Config {
	cfg := fleet.SmallConfig()
	cfg.RacksPerRegion = racksPerRegion
	cfg.Fidelity = fleet.Fidelity(fidelity)
	cfg.KeepExamples = false
	cfg.Workers = 1
	return cfg
}

// shorten cuts a fleet to -short size: half the servers and a quarter of the
// sampling window.
func shorten(cfg fleet.Config) fleet.Config {
	cfg.ServersPerRack, cfg.Buckets = 12, 100
	return cfg
}

// genWorkload is gen-full and gen-hybrid: dataset.Create, then
// fleet.GenerateStream into shard writers, Finalize, Open. One op is one
// rack-hour; a call is the interval between two consecutive sink callbacks.
type genWorkload struct {
	fidelity string
	cfg      fleet.Config // of a measured block
	pinned   string
	work     string
	n        int
}

func (g *genWorkload) Close()         {}
func (g *genWorkload) Pinned() string { return g.pinned }

func (g *genWorkload) Setup(e *env) error {
	g.work = e.work
	g.cfg, g.pinned = genConfig(g.fidelity, 5), genDigests[g.fidelity+"/5"]
	warm, warmPinned := g.cfg, g.pinned // hybrid warms up on a whole block
	if g.fidelity == "full" {
		// A full block takes five seconds; one rack per region runs the same code.
		warm, warmPinned = genConfig("full", 1), genDigests["full/1"]
	}
	if e.short {
		g.cfg, g.pinned = shorten(genConfig(g.fidelity, 1)), genDigests[g.fidelity+"/1-short"]
		warm, warmPinned = g.cfg, g.pinned
	}
	if err := os.RemoveAll(g.work); err != nil {
		return err
	}
	if err := os.MkdirAll(g.work, 0o755); err != nil {
		return err
	}
	b, err := g.pass(nil, warm)
	if err != nil {
		return err
	}
	if !hasDigest(b.Check, warmPinned) {
		return fmt.Errorf("warm-up digest %s, want %s", b.Check, warmPinned)
	}
	return nil
}

func (g *genWorkload) Block(tr *Tracer) (*block, error) { return g.pass(tr, g.cfg) }

// genSink wraps a ShardWriter: it closes a segment after every rack-hour and
// puts a span around each call into the dataset layer.
type genSink struct {
	sw *dataset.ShardWriter
	p  *genPass
}

type genPass struct {
	tr     *Tracer
	m      *marker
	op     int
	opSpan int
}

func (s *genSink) Run(r fleet.RunSummary) error {
	p := s.p
	err := p.tr.Do("dataset.Run", p.op, func() error { return s.sw.Run(r) })
	p.tr.End(p.opSpan)
	p.m.mark(true)
	p.op++
	p.opSpan = p.tr.Begin("fleet.rackhour", p.op)
	return err
}

func (s *genSink) Commit(meta fleet.RackMeta) error {
	return s.p.tr.Do("dataset.Commit", s.p.op, func() error { return s.sw.Commit(meta) })
}

func (s *genSink) Abort() { s.sw.Abort() }

func (g *genWorkload) pass(tr *Tracer, cfg fleet.Config) (*block, error) {
	g.n++
	dir := filepath.Join(g.work, fmt.Sprintf("ds-%d", g.n))
	defer os.RemoveAll(dir)

	blk := tr.Begin("block", -1)
	p := &genPass{tr: tr, m: newMarker(tr)}
	var w *dataset.Writer
	err := tr.Do("dataset.Create", -1, func() (err error) { w, err = dataset.Create(dir, cfg); return })
	if err != nil {
		return nil, err
	}
	p.m.mark(false)
	stream := tr.Begin("fleet.GenerateStream", -1)
	p.opSpan = tr.Begin("fleet.rackhour", 0)
	err = fleet.GenerateStream(context.Background(), cfg, fleet.StreamOpts{
		Begin: func(meta fleet.RackMeta) (fleet.RackSink, error) {
			var sw *dataset.ShardWriter
			err := tr.Do("dataset.Begin", p.op, func() (err error) { sw, err = w.Begin(meta); return })
			return &genSink{sw: sw, p: p}, err
		},
	})
	// The span opened after the last rack-hour holds only that rack's commit.
	tr.Rename(p.opSpan, "fleet.stream_tail", -1)
	tr.End(p.opSpan)
	tr.End(stream)
	if err != nil {
		return nil, err
	}
	if err := tr.Do("dataset.Finalize", -1, w.Finalize); err != nil {
		return nil, err
	}
	var r *dataset.Reader
	err = tr.Do("dataset.Open", -1, func() (err error) { r, err = dataset.Open(dir); return })
	if err != nil {
		return nil, err
	}
	p.m.mark(false)
	tr.End(blk)

	// Checking is not part of the product, so it is not timed.
	ds, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	digest, err := ds.Digest()
	if err != nil {
		return nil, err
	}
	store, err := r.StoreDigest()
	if err != nil {
		return nil, err
	}
	bytes, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	b := p.m.block()
	if want := len(fleet.BuildRacks(cfg)) * len(cfg.Hours); len(b.Calls) != want {
		return nil, fmt.Errorf("sink saw %d rack-hours, want %d", len(b.Calls), want)
	}
	b.Bytes, b.Check = bytes, digest+" store "+store
	return b, nil
}

// hasDigest reports whether a block's check string starts with the pinned
// digest (the rest is the store digest, which is only compared across blocks).
func hasDigest(check, pinned string) bool {
	return pinned != "" && strings.HasPrefix(check, pinned)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}
