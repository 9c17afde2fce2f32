package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/queryd"
	"repro/internal/sweep"
)

// Request classes of serve-mixed, cheap ones first.
const (
	classWarm    = iota // dataset render that stays in the cache
	classWarm304        // the same with If-None-Match: answered before the cache is asked
	classRack           // one rack's runs as NDJSON (one shard decoded)
	classCold           // dataset render that the cache has already evicted
	classSweep          // what-if render, evicted likewise (reopens the sweep store)
	classFull           // /runs?class=: walks every shard
	numClasses
)

var classNames = [numClasses]string{
	"queryd.render_warm", "queryd.render_304", "queryd.stream_rack",
	"queryd.render_cold", "queryd.sweep_render_cold", "queryd.stream_full",
}

// warmIDs are the renders a dashboard would keep asking for.
var warmIDs = []string{"tab1", "fig6", "fig9", "fig16"}

var renderFormats = []string{"text", "md", "json"}

// fig5 regenerates two raw rack-hours and costs a hundred times any other
// render; with it in the mix it would be the whole workload.
const excludedRender = "fig5"

type request struct {
	class int
	url   string
	inm   bool
}

// known is what the first response for a URL looked like; every later
// response must match it byte for byte.
type known struct {
	sum  [sha256.Size]byte
	size int
	etag string
}

// serveWorkload is serve-mixed: queryd behind a loopback TCP listener, two
// closed-loop clients replaying one seeded request sequence. One op is one
// request.
type serveWorkload struct {
	root    string
	qd      *queryd.Server
	srv     *httptest.Server
	clients [2]*http.Client
	reqs    []request
	known   map[string]known
}

// bodiesChecked stands in for a digest: serve-mixed compares every response
// with the first one for its URL and counts a mismatch as a failed op.
const bodiesChecked = "every body compared with the first response for its URL"

func (s *serveWorkload) Pinned() string { return bodiesChecked }

func (s *serveWorkload) Close() {
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
}

// Setup generates the hybrid small-preset dataset and the zoo sweep store
// under one root (checked against the digests gen-hybrid and sweep-zoo pin),
// asks a throw-away server for every URL once to learn the expected bodies
// and their sizes, starts the measured server with a cache too small for the
// cold set, warms the warm set, and replays one untimed block.
func (s *serveWorkload) Setup(e *env) error {
	s.Close()
	if err := os.RemoveAll(e.work); err != nil {
		return err
	}
	s.root = filepath.Join(e.work, "root")
	if err := os.MkdirAll(s.root, 0o755); err != nil {
		return err
	}
	// Five racks per region is the fewest that gives every contention class
	// a rack, which some renders insist on.
	cfg, pinned := genConfig("hybrid", 5), "hybrid/5"
	if e.short {
		cfg, pinned = shorten(cfg), "hybrid/5-short"
	}
	r, err := dataset.GenerateDir(context.Background(), filepath.Join(s.root, "ds"), cfg, nil)
	if err != nil {
		return err
	}
	ds, err := r.Dataset()
	if err != nil {
		return err
	}
	digest, err := ds.Digest()
	if err != nil {
		return err
	}
	if want := genDigests[pinned]; digest != want {
		return fmt.Errorf("served dataset digest %s, pinned %q", digest, want)
	}
	res, err := sweep.Run(context.Background(), filepath.Join(s.root, "zoo"), zooSpec(e.short), sweep.Options{Workers: 1})
	if err != nil {
		return err
	}
	if got, want := res.Manifest.ResultDigest, zooDigests[e.short]; got != want {
		return fmt.Errorf("served sweep digest %s, pinned %q", got, want)
	}

	var cold, sweeps, racksURLs, fulls, warm []string
	isWarm := map[string]bool{}
	for _, id := range warmIDs {
		u := "/v1/datasets/ds/renders/" + id + "?format=text"
		warm, isWarm[u] = append(warm, u), true
	}
	for _, id := range experiments.IDs() {
		if id == excludedRender {
			continue
		}
		for _, f := range renderFormats {
			if u := "/v1/datasets/ds/renders/" + id + "?format=" + f; !isWarm[u] {
				cold = append(cold, u)
			}
		}
	}
	for _, id := range []string{"whatif-grid", "whatif-alpha", "whatif-policy", "all"} {
		for _, f := range renderFormats {
			sweeps = append(sweeps, "/v1/sweeps/zoo/renders/"+id+"?format="+f)
		}
	}
	for _, m := range r.RackMetas() {
		racksURLs = append(racksURLs, fmt.Sprintf("/v1/datasets/ds/racks/%s/%d/runs", m.Region, m.ID))
	}
	for _, c := range []string{"RegA-Typical", "RegA-High", "RegB"} {
		fulls = append(fulls, "/v1/datasets/ds/runs?class="+c)
	}

	// Learn every URL's body from a server with room for everything.
	s.qd = queryd.New(queryd.Config{Root: s.root})
	s.srv = httptest.NewServer(s.qd.Handler())
	s.newClients()
	s.known = map[string]known{}
	var warmBytes, coldBytes int64
	for _, list := range [][]string{warm, cold, sweeps, racksURLs, fulls} {
		for _, u := range list {
			k, err := s.learn(u)
			if err != nil {
				return err
			}
			s.known[u] = k
		}
	}
	for _, u := range warm {
		warmBytes += int64(s.known[u].size)
	}
	for _, u := range cold {
		coldBytes += int64(s.known[u].size)
	}
	s.srv.Close()

	// Room for the warm set plus a quarter of the cold one: the warm renders
	// are touched too often to age out, while a cold render, asked for again
	// only after the rest of its round-robin, has always been evicted.
	s.qd = queryd.New(queryd.Config{Root: s.root, CacheBytes: warmBytes + coldBytes/4})
	s.srv = httptest.NewServer(s.qd.Handler())
	s.newClients()

	s.reqs = buildMix(e.seed, warm, racksURLs, cold, sweeps, fulls)
	for _, u := range warm {
		if _, err := s.learn(u); err != nil {
			return err
		}
	}
	b, err := s.Block(nil)
	if err != nil {
		return err
	}
	if b.Failed > 0 {
		return fmt.Errorf("warm-up block: %d of %d requests failed", b.Failed, len(s.reqs))
	}
	return nil
}

func (s *serveWorkload) newClients() {
	for i := range s.clients {
		s.clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
}

func (s *serveWorkload) learn(u string) (known, error) {
	resp, err := s.clients[0].Get(s.srv.URL + u)
	if err != nil {
		return known{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return known{}, err
	}
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		return known{}, fmt.Errorf("GET %s: status %d: %.200s", u, resp.StatusCode, body)
	}
	return known{sum: sha256.Sum256(body), size: len(body), etag: resp.Header.Get("ETag")}, nil
}

// buildMix lays out one block's requests. The cold set is gone through once
// and the sweep renders twice, in order, so that every block finds the cache
// in the state the previous one left it; the other classes are sized from
// the cold count to give the mix
//
//	40% warm renders (half revalidated with If-None-Match), 35% rack
//	streams, 15% cold dataset renders, 5% cold sweep renders, 5% full streams,
//
// and the seed decides only where in the block each class falls. Three
// quarters of the requests are cheap and a quarter expensive, which keeps the
// median inside the cheap group and the p90 inside the expensive one.
func buildMix(seed uint64, warm, racks, cold, sweeps, fulls []string) []request {
	n := len(cold) * 100 / 15
	counts := [numClasses]int{
		classWarm: n * 20 / 100, classWarm304: n * 20 / 100,
		classCold: len(cold), classSweep: 2 * len(sweeps),
		classFull: n * 5 / 100,
	}
	counts[classRack] = n - counts[classWarm] - counts[classWarm304] - counts[classCold] - counts[classSweep] - counts[classFull]
	var order []int
	for c, k := range counts {
		for i := 0; i < k; i++ {
			order = append(order, c)
		}
	}
	rnd := rand.New(rand.NewSource(int64(seed)))
	rnd.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	lists := [numClasses][]string{warm, warm, racks, cold, sweeps, fulls}
	var next [numClasses]int
	reqs := make([]request, len(order))
	for i, c := range order {
		reqs[i] = request{class: c, url: lists[c][next[c]%len(lists[c])], inm: c == classWarm304}
		next[c]++
	}
	return reqs
}

// Block replays the sequence: each client takes the next request when its
// previous one has been answered in full.
func (s *serveWorkload) Block(tr *Tracer) (*block, error) {
	calls := make([]float64, len(s.reqs))
	var next, bytes, failed atomic.Int64
	var wg sync.WaitGroup
	forks := make([]*Tracer, len(s.clients))
	// Two clients overlap, so the kernel cannot run between requests; it runs
	// before and after the block, which lasts a third of a second.
	cal := []float64{calibrate(), calibrate(), calibrate()}
	blk := tr.Begin("block", -1)
	t0, c0 := time.Now(), cpuSeconds()
	for ci, cl := range s.clients {
		forks[ci] = tr.Fork()
		wg.Add(1)
		go func(cl *http.Client, tr *Tracer) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.reqs) {
					return
				}
				rq := s.reqs[i]
				span := tr.Begin(classNames[rq.class], i)
				start := time.Now()
				n, ok := s.do(cl, rq)
				calls[i] = time.Since(start).Seconds()
				tr.End(span)
				bytes.Add(int64(n))
				if !ok {
					failed.Add(1)
				}
			}
		}(cl, forks[ci])
	}
	wg.Wait()
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
	if tr != nil {
		base := len(tr.spans)
		for _, f := range forks {
			tr.Merge(f)
		}
		for i := base; i < len(tr.spans); i++ { // the clients' roots hang under the block
			if tr.spans[i].Parent < 0 {
				tr.spans[i].Parent = blk
			}
		}
	}
	tr.End(blk)
	return &block{
		Wall: wall, CPU: cpu, Calls: calls, Cal: append(cal, calibrate(), calibrate(), calibrate()),
		Bytes: bytes.Load(), Failed: int(failed.Load()), Check: bodiesChecked,
	}, nil
}

// do issues one request and checks the answer: 200 with the known body, or
// 304 to a revalidation. Anything else, a 429 included, is a failed op.
func (s *serveWorkload) do(cl *http.Client, rq request) (int, bool) {
	k := s.known[rq.url]
	req, err := http.NewRequest(http.MethodGet, s.srv.URL+rq.url, nil)
	if err != nil {
		return 0, false
	}
	if rq.inm {
		req.Header.Set("If-None-Match", k.etag)
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	h := sha256.New()
	n, err := io.Copy(h, resp.Body)
	if err != nil {
		return int(n), false
	}
	switch {
	case resp.StatusCode == http.StatusNotModified && rq.inm:
		return int(n), n == 0
	case resp.StatusCode == http.StatusOK:
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		return int(n), sum == k.sum
	}
	return int(n), false
}
