package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/distrib"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/fsutil"
	"repro/internal/sweep"
)

// genCfg is the fleet of the pipeline probes: two racks per region, small
// enough that a full-fidelity pass takes two seconds, large enough to hold a
// light and a heavy rack of each region. Under -short it is a toy.
func (p *probes) genCfg(fidelity string) fleet.Config {
	if p.scale > 1 {
		return shorten(genConfig(fidelity, 1))
	}
	return genConfig(fidelity, 2)
}

// tracedPass generates cfg through the gen workload's own code with spans
// on, and returns the block and the self time per span name.
func (p *probes) tracedPass(cfg fleet.Config) (*block, map[string]float64, error) {
	g := &genWorkload{work: filepath.Join(p.work, "gen")}
	if err := os.MkdirAll(g.work, 0o755); err != nil {
		return nil, nil, err
	}
	tr := NewTracer()
	b, err := g.pass(tr, cfg)
	if err != nil {
		return nil, nil, err
	}
	return b, SelfByName(tr.Spans()), nil
}

// fleet: one small generation per fidelity through the gen workload's code
// with spans on. A rack-hour's fleet time is its span between sink callbacks
// less the dataset spans inside it; the dataset spans give the shard write
// cost. Then the same fleet on two workers, with the host-stack instrument,
// and the burst analysis alone.
func (p *probes) fleet() error {
	// The two fidelities take turns, so that both see the same machine.
	var wall, rackhour, write [2][]float64
	var bytesPerOp float64
	for round := 0; round < p.pipeRounds()+1; round++ {
		for i, fid := range []string{"full", "hybrid"} {
			b, self, err := p.tracedPass(p.genCfg(fid))
			if err != nil {
				return err
			}
			ops := float64(len(b.Calls))
			wall[i] = append(wall[i], b.Wall)
			rackhour[i] = append(rackhour[i], self["fleet.rackhour"]/ops*1e3)
			write[i] = append(write[i], self["dataset.Begin"]+self["dataset.Run"]+self["dataset.Commit"])
			bytesPerOp = float64(b.Bytes) / ops
		}
	}
	fullWall, hybridWall := Median(wall[0]), Median(wall[1])
	racks := float64(len(fleet.BuildRacks(p.genCfg("hybrid"))))
	p.set("fleet.rackhour_full_ms", Median(rackhour[0]))
	p.set("fleet.rackhour_hybrid_ms", Median(rackhour[1]))
	p.set("fleet.hybrid_speedup", fullWall/hybridWall)
	p.set("dataset.shard_write_ms", Median(write[1])/racks*1e3)
	p.set("dataset.write_share", Median(write[1])/hybridWall)
	p.set("dataset.bytes_per_rackhour", bytesPerOp)

	generate := func(cfg fleet.Config) float64 {
		return typical(p.pipeRounds(), func() float64 {
			dir := filepath.Join(p.work, "gen-plain")
			defer os.RemoveAll(dir)
			t0 := time.Now()
			if _, err := dataset.GenerateDir(context.Background(), dir, cfg, nil); err != nil {
				panic(err)
			}
			return since(t0)
		})
	}
	if !unmeasurable("fleet.scaling_w2") {
		two := p.genCfg("full")
		two.Workers = 2
		p.set("fleet.scaling_w2", fullWall/generate(two))
	}
	plain := p.genCfg("full")
	plain.RacksPerRegion = 1
	tapped := plain
	tapped.HostStack = true
	p.set("hoststack.overhead_ratio", generate(tapped)/generate(plain))
	if err := p.analyze(); err != nil {
		return err
	}
	return p.dataset(p.genCfg("hybrid"))
}

// dataset: the shard codec and the reader over one generated store, with no
// simulation in the timed parts.
func (p *probes) dataset(cfg fleet.Config) error {
	ctx := context.Background()
	dir := filepath.Join(p.work, "ds-codec")
	defer os.RemoveAll(dir)
	r, err := dataset.GenerateDir(ctx, dir, cfg, nil)
	if err != nil {
		return err
	}
	var shardBytes int64
	for _, sh := range r.Shards() {
		info, err := os.Stat(filepath.Join(dir, sh.File))
		if err != nil {
			return err
		}
		shardBytes += info.Size()
	}
	mb := float64(shardBytes) / 1e6
	reps := p.n(10)

	// Encode: feed the stored runs back through a shard writer.
	metas := r.RackMetas()
	runs := make([][]fleet.RunSummary, len(metas))
	for i, m := range metas {
		if runs[i], err = r.RackRuns(m.Region, m.ID); err != nil {
			return err
		}
	}
	enc := typical(p.pipeRounds(), func() float64 {
		total := 0.0
		for rep := 0; rep < reps; rep++ {
			out := filepath.Join(p.work, "ds-encode")
			w, err := dataset.Create(out, cfg)
			if err != nil {
				panic(err)
			}
			t0 := time.Now()
			for i, m := range metas {
				sw, err := w.Begin(m)
				if err != nil {
					panic(err)
				}
				for _, run := range runs[i] {
					if err := sw.Run(run); err != nil {
						panic(err)
					}
				}
				if err := sw.Commit(m); err != nil {
					panic(err)
				}
			}
			total += since(t0)
			os.RemoveAll(out)
		}
		return total
	})
	p.set("dataset.encode_mb_per_s", mb*float64(reps)/enc)

	dec := typical(p.pipeRounds(), func() float64 {
		t0 := time.Now()
		for rep := 0; rep < reps; rep++ {
			if _, err := r.EachRun(func(*fleet.RunSummary, fleet.Class) error { return nil }); err != nil {
				panic(err)
			}
		}
		return since(t0)
	})
	p.set("dataset.decode_mb_per_s", mb*float64(reps)/dec)

	open := typical(p.pipeRounds(), func() float64 {
		t0 := time.Now()
		for rep := 0; rep < reps; rep++ {
			rr, err := dataset.Open(dir)
			if err != nil {
				panic(err)
			}
			if _, err := rr.StoreDigest(); err != nil {
				panic(err)
			}
		}
		return since(t0)
	})
	p.set("dataset.open_ms", open/float64(reps)*1e3)

	payload, err := dataset.EncodeShard(ctx, cfg, metas[0].Region, metas[0].ID)
	if err != nil {
		return err
	}
	vreps := reps * 10
	ver := typical(p.pipeRounds(), func() float64 {
		t0 := time.Now()
		for rep := 0; rep < vreps; rep++ {
			if err := payload.Verify(); err != nil {
				panic(err)
			}
		}
		return since(t0)
	})
	p.set("dataset.verify_mb_per_s", float64(len(payload.Data))*float64(vreps)/1e6/ver)
	return nil
}

// sweep: the zoo grid computed and committed point by point, the way
// sweep.Run and a distributed worker do it, so that simulation and store
// time come apart.
func (p *probes) sweep() error {
	ctx := context.Background()
	spec := zooSpec(p.scale > 1)
	points, err := spec.Expand()
	if err != nil {
		return err
	}
	want := map[string]string{"baseline": "dt", "static-partition": "static", "complete-sharing": "complete", "bshare": "bshare", "abm a=1": "abm"}
	compute := map[int]float64{} // fastest round, by point
	var commits []float64
	share := 1.0
	for round := 0; round < p.pipeRounds(); round++ {
		dir := filepath.Join(p.work, "sweep-probe")
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		var st *sweep.Store
		var stepErr error
		timed := func(step func() error) float64 {
			t0 := time.Now()
			if err := step(); err != nil && stepErr == nil {
				stepErr = err
			}
			return since(t0)
		}
		store := timed(func() (err error) { st, err = sweep.Create(dir, spec); return })
		sim := 0.0
		var classes map[string]string
		for _, pt := range points {
			var pr *sweep.PointResult
			var cl map[string]string
			d := timed(func() (err error) { pr, cl, err = sweep.ComputePoint(ctx, spec.Fleet, pt, 1, classes); return })
			if stepErr != nil {
				return stepErr
			}
			sim += d
			if old, ok := compute[pt.Index]; !ok || d < old {
				compute[pt.Index] = d
			}
			if pt.Index == 0 {
				classes = cl
			} else {
				cl = nil // only the baseline's commit records the classification
			}
			c := timed(func() error { return st.CommitPoint(pr, cl) })
			commits = append(commits, c)
			store += c
		}
		store += timed(func() error { return st.Finalize() })
		if stepErr != nil {
			return stepErr
		}
		if s := store / (store + sim); s < share {
			share = s
		}
	}
	for _, pt := range points {
		if name, ok := want[pt.Label]; ok {
			p.set("sweep.point_ms."+name, compute[pt.Index]*1e3)
			delete(want, pt.Label)
		}
	}
	if len(want) > 0 {
		return fmt.Errorf("zoo grid has no point labelled %v", want)
	}
	p.set("sweep.commit_point_ms", Median(commits)*1e3)
	p.set("sweep.store_share", share)

	dir := filepath.Join(p.work, "sweep-probe")
	reps := p.n(100)
	d := typical(p.pipeRounds(), func() float64 {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			res, err := sweep.Open(dir)
			if err != nil {
				panic(err)
			}
			_ = sweep.Report(res)
		}
		return since(t0)
	})
	p.set("sweep.open_report_ms", d/float64(reps)*1e3)
	return os.RemoveAll(dir)
}

// distrib: the coordinator over loopback HTTP. Lease and Complete with
// shard payloads prepared beforehand; the idempotent install on its own; and
// a whole generation by one in-process worker against the same generation
// done locally, per unit.
func (p *probes) distrib() error {
	ctx := context.Background()
	cfg := p.genCfg("hybrid")
	cfg.Workers = 0 // the wire form; a worker picks its own
	racks := fleet.BuildRacks(cfg)
	payloads := map[string][]byte{}
	var shards []*dataset.ShardPayload
	for _, rk := range racks {
		sp, err := dataset.EncodeShard(ctx, cfg, rk.Region, rk.ID)
		if err != nil {
			return err
		}
		data, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		payloads[fmt.Sprintf("shard:%s/%d", rk.Region, rk.ID)] = data
		shards = append(shards, sp)
	}
	serve := func(dir string) (*distrib.Coordinator, *httptest.Server, *distrib.Client, error) {
		co := distrib.NewCoordinator(distrib.CoordinatorConfig{})
		srv := httptest.NewServer(co.Handler())
		cl := &distrib.Client{BaseURL: srv.URL, Worker: "probe"}
		err := cl.Submit(ctx, &distrib.JobRequest{Kind: distrib.KindShard, Dir: dir, Config: &cfg})
		return co, srv, cl, err
	}

	var totals distrib.LedgerEntry
	reps := p.n(10)
	rtt := typical(p.pipeRounds(), func() float64 {
		total := 0.0
		for rep := 0; rep < reps; rep++ {
			dir := filepath.Join(p.work, "distrib-rtt")
			co, srv, cl, err := serve(dir)
			if err != nil {
				panic(err)
			}
			t0 := time.Now()
			for {
				lr, err := cl.Lease(ctx)
				if err != nil {
					panic(err)
				}
				if lr.Unit == nil {
					if !lr.Done {
						panic("benchmark: coordinator holds units back from its only worker")
					}
					break
				}
				data := payloads[lr.Unit.ID]
				if _, err := cl.Complete(ctx, lr.Unit.ID, lr.Unit.Token, data, fsutil.SHA256(data)); err != nil {
					panic(err)
				}
			}
			total += since(t0)
			totals = co.Ledger().Totals()
			srv.Close()
			os.RemoveAll(dir)
		}
		return total
	})
	p.set("distrib.lease_complete_rtt_us", rtt/float64(reps*len(racks))*1e6)

	install := typical(p.pipeRounds(), func() float64 {
		total := 0.0
		for rep := 0; rep < reps; rep++ {
			dir := filepath.Join(p.work, "distrib-install")
			w, err := dataset.Create(dir, cfg)
			if err != nil {
				panic(err)
			}
			t0 := time.Now()
			for _, sp := range shards {
				if _, err := w.InstallShard(sp); err != nil {
					panic(err)
				}
			}
			total += since(t0)
			os.RemoveAll(dir)
		}
		return total
	})
	p.set("distrib.install_shard_us", install/float64(reps*len(racks))*1e6)

	local := cfg
	local.Workers = 1
	remote := typical(p.pipeRounds(), func() float64 {
		dir := filepath.Join(p.work, "distrib-run")
		defer os.RemoveAll(dir)
		co, srv, cl, err := serve(dir)
		if err != nil {
			panic(err)
		}
		defer srv.Close()
		t0 := time.Now()
		if err := (&distrib.Worker{Client: cl, SimWorkers: 1}).Run(ctx); err != nil {
			panic(err)
		}
		<-co.Done()
		d := since(t0)
		tot := co.Ledger().Totals()
		totals.Duplicates += tot.Duplicates
		totals.Expired += tot.Expired
		totals.Quarantined += tot.Quarantined
		return d
	})
	alone := typical(p.pipeRounds(), func() float64 {
		dir := filepath.Join(p.work, "distrib-local")
		defer os.RemoveAll(dir)
		t0 := time.Now()
		if _, err := dataset.GenerateDir(ctx, dir, local, nil); err != nil {
			panic(err)
		}
		return since(t0)
	})
	p.set("distrib.unit_overhead_ms", (remote-alone)/float64(len(racks))*1e3)
	p.set("distrib.duplicates", float64(totals.Duplicates))
	p.set("distrib.requeues", float64(totals.Expired+totals.Quarantined))
	return nil
}

// queryd: a serve-mixed instance of reduced size. The latency of each
// request class is the median over its requests in all blocks; the cache
// counters are the server's own over one block; the
// catalog listing and the experiments layer underneath a render are timed
// directly.
func (p *probes) queryd() error {
	s := &serveWorkload{}
	defer s.Close()
	if err := s.Setup(&env{seed: p.seed, short: true, work: filepath.Join(p.work, "serve")}); err != nil {
		return err
	}
	before := s.qd.Metrics().Snapshot()
	blocks := p.n(8)
	byClass := make([][]float64, numClasses)
	var streamTime float64
	for i := 0; i < blocks; i++ {
		b, err := s.Block(nil)
		if err != nil {
			return err
		}
		if b.Failed > 0 {
			return fmt.Errorf("%d requests failed", b.Failed)
		}
		for i, rq := range s.reqs {
			byClass[rq.class] = append(byClass[rq.class], b.Calls[i])
			if rq.class == classRack || rq.class == classFull {
				streamTime += b.Calls[i]
			}
		}
	}
	after := s.qd.Metrics().Snapshot()
	p.set("queryd.render_warm_us", Median(byClass[classWarm])*1e6)
	p.set("queryd.render_304_us", Median(byClass[classWarm304])*1e6)
	p.set("queryd.stream_rack_ms", Median(byClass[classRack])*1e3)
	p.set("queryd.render_cold_ms", Median(byClass[classCold])*1e3)
	p.set("queryd.sweep_render_cold_ms", Median(byClass[classSweep])*1e3)
	p.set("queryd.stream_full_ms", Median(byClass[classFull])*1e3)
	perBlock := float64(blocks)
	p.set("queryd.stream_runs_per_s", float64(after.RunsStreamed-before.RunsStreamed)/streamTime)
	hits, misses := float64(after.CacheHits-before.CacheHits), float64(after.CacheMisses-before.CacheMisses)
	p.set("queryd.cache_hit_ratio", hits/(hits+misses))
	p.set("queryd.renders_built", float64(after.RendersBuilt-before.RendersBuilt)/perBlock)
	p.set("queryd.throttled", float64(after.Throttled-before.Throttled))

	reps := p.n(200)
	cat := typical(p.pipeRounds(), func() float64 {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			resp, err := s.clients[0].Get(s.srv.URL + "/v1/catalog")
			if err != nil {
				panic(err)
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				panic(fmt.Sprintf("benchmark: catalog: status %d, %v", resp.StatusCode, err))
			}
		}
		return since(t0)
	})
	p.set("queryd.catalog_ms", cat/float64(reps)*1e3)

	r, err := dataset.Open(filepath.Join(s.root, "ds"))
	if err != nil {
		return err
	}
	var ids []string
	for _, id := range experiments.IDs() {
		if id != excludedRender {
			ids = append(ids, id)
		}
	}
	ereps := p.n(3)
	ex := typical(p.pipeRounds(), func() float64 {
		t0 := time.Now()
		for i := 0; i < ereps; i++ {
			for _, id := range ids {
				if _, err := experiments.Run(id, r); err != nil {
					panic(err)
				}
			}
		}
		return since(t0)
	})
	p.set("experiments.run_ms", ex/float64(ereps*len(ids))*1e3)
	return nil
}
