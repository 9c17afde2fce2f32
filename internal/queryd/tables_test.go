package queryd

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/experiments"
)

// renderFormatList is every format a render is asked for, in order.
var renderFormatList = []string{"text", "md", "json"}

// wantAllRenders is wantRenders for every dataset render id and "all".
func wantAllRenders(t *testing.T, r *dataset.Reader) map[string]map[string]string {
	t.Helper()
	want := map[string]map[string]string{}
	for _, id := range append(experiments.IDs(), "all") {
		want[id] = wantRenders(t, r, id, renderFormatList...)
	}
	return want
}

// TestRenderTablesComputedOnce: every format of a dataset render, and every
// body rebuilt after its eviction, formats one computation per id and store.
// The render cache has room for one body (the LRU keeps its newest entry), so
// no id's three formats fit and the second pass misses every body; a second
// dataset beside the fixture's copy, with other content under the same render
// ids, holds the store digest in the tables key.
func TestRenderTablesComputedOnce(t *testing.T) {
	root := t.TempDir()
	copyDir(t, filepath.Join(fixtureRoot(t), "data", "tiny"), filepath.Join(root, "tiny"))
	other := fixConfig()
	other.Seed += 1000
	other.HostStack = false
	if _, err := dataset.GenerateDir(context.Background(), filepath.Join(root, "other"), other, nil); err != nil {
		t.Fatal(err)
	}
	s, ts := httptestServer(t, Config{Root: root, CacheBytes: 1})

	computed := int64(0) // renders that answer 200; a refusal is an error, and errors are not kept
	for _, name := range []string{"tiny", "other"} {
		r, err := dataset.Open(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		want := wantAllRenders(t, r)
		for _, w := range want {
			if strings.HasPrefix(w["text"], "200 ") {
				computed++
			}
		}
		for pass := 0; pass < 2; pass++ {
			for id, w := range want {
				for _, f := range renderFormatList {
					if got := fetch(t, ts.URL+"/v1/datasets/"+name+"/renders/"+id+"?format="+f); got != w[f] {
						t.Fatalf("%s %s as %s (pass %d): answer differs from the Reader's\n--- server\n%.300s\n--- reader\n%.300s", name, id, f, pass, got, w[f])
					}
				}
			}
		}
	}
	if st := s.tables.stats(); st.misses != computed || st.hits != 5*computed {
		t.Errorf("tables cache saw %d misses and %d hits for %d renders asked six times each; want one miss and five hits per render", st.misses, st.hits, computed)
	}
	if built := s.Metrics().Snapshot().RendersBuilt; built != 6*computed {
		t.Errorf("%d bodies built, want %d: the render cache holds one body, so every request builds its own", built, 6*computed)
	}
}

// TestRenderTablesShared: the tables one computation yields are shared
// read-only by every request formatting them at once (run it under -race),
// and a render that fails keeps nothing: once its shard is mended, the same
// URL renders.
func TestRenderTablesShared(t *testing.T) {
	r, err := dataset.Open(filepath.Join(fixtureRoot(t), "data", "tiny"))
	if err != nil {
		t.Fatal(err)
	}
	want := wantAllRenders(t, r)
	// Room for one body: nearly every request formats the shared tables.
	_, ts := newTestServer(t, Config{CacheBytes: 1})
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id, w := range want {
				for _, f := range renderFormatList {
					resp, err := http.Get(ts.URL + "/v1/datasets/data/tiny/renders/" + id + "?format=" + f)
					if err != nil {
						t.Error(err)
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if got := resp.Status + "\n" + string(body); err != nil || got != w[f] {
						t.Errorf("%s as %s: answer differs from the Reader's (read error %v)\n--- server\n%.300s\n--- reader\n%.300s", id, f, err, got, w[f])
					}
				}
			}
		}()
	}
	wg.Wait()

	root := t.TempDir()
	dir := filepath.Join(root, "tiny")
	copyDir(t, filepath.Join(fixtureRoot(t), "data", "tiny"), dir)
	shard := r.Shards()[0]
	file := filepath.Join(dir, shard.File)
	orig, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, append(bytes.Clone(orig), "trailing garbage"...), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := httptestServer(t, Config{Root: root})
	url := ts.URL + "/v1/datasets/tiny/renders/tab1"
	resp, body := get(t, url, nil)
	if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(body, []byte("corrupt shard")) || !bytes.Contains(body, []byte(shard.File)) {
		t.Fatalf("render over a corrupt shard: %s: %.300s; want a 500 naming %s as corrupt", resp.Status, body, shard.File)
	}
	if st := s.tables.stats(); st.bytes != 0 || st.misses != 0 {
		t.Fatalf("a failed render left the tables cache with %d bytes, %d misses; want nothing kept", st.bytes, st.misses)
	}
	if err := os.WriteFile(file, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := fetch(t, url); got != want["tab1"]["text"] {
		t.Fatalf("render after the shard was mended differs from the Reader's\n--- server\n%.300s\n--- reader\n%.300s", got, want["tab1"]["text"])
	}
}
