package queryd

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/retry"
)

func noSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

func TestClientRevalidates(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c := &Client{BaseURL: ts.URL}
	id := experiments.IDs()[0]

	first, err := c.RenderDataset(context.Background(), "data/tiny", id, "text")
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("empty render")
	}
	second, err := c.RenderDataset(context.Background(), "data/tiny", id, "text")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("revalidated body differs")
	}
	if reval, filled := c.Stats(); reval != 1 || filled != 1 {
		t.Errorf("stats after fill+revalidate: reval=%d filled=%d", reval, filled)
	}

	// Behind a proxy that weakens validators (as one that compresses must),
	// the client hands back W/"…" and the server still revalidates.
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := http.NewRequest(r.Method, ts.URL+r.URL.RequestURI(), nil)
		req.Header = r.Header
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("ETag", "W/"+resp.Header.Get("ETag"))
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer proxy.Close()
	pc := &Client{BaseURL: proxy.URL}
	for i := 0; i < 2; i++ {
		if got, err := pc.RenderDataset(context.Background(), "data/tiny", id, "text"); err != nil || !bytes.Equal(got, first) {
			t.Fatalf("fetch %d through the weakening proxy: %d bytes, err %v", i, len(got), err)
		}
	}
	if reval, filled := pc.Stats(); reval != 1 || filled != 1 {
		t.Errorf("through the weakening proxy: reval=%d filled=%d", reval, filled)
	}

	if _, err := c.RenderSweep(context.Background(), "sweeps/tiny", "whatif-grid", "text"); err != nil {
		t.Fatal(err)
	}
	if cat, err := c.Catalog(context.Background()); err != nil || !bytes.Contains(cat, []byte("data/tiny")) {
		t.Errorf("catalog fetch: %v", err)
	}
}

func TestClientRetriesTransient(t *testing.T) {
	var calls int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt64(&calls, 1) < 3 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("ETag", `"x"`)
		w.Write([]byte("payload"))
	}))
	defer flaky.Close()

	c := &Client{BaseURL: flaky.URL, Policy: retry.Policy{MaxAttempts: 5, Base: 1}, Sleep: noSleep}
	body, err := c.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "payload" || atomic.LoadInt64(&calls) != 3 {
		t.Errorf("body %q after %d calls", body, calls)
	}
}

// TestClientRetriesAreJittered checks that clients which fail together do
// not retry in lockstep: against a server that answers 503, no delay exceeds
// the unjittered schedule and at least one falls below it.
func TestClientRetriesAreJittered(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "unavailable", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	p := retry.Policy{MaxAttempts: 8, Base: 64 * time.Millisecond, Factor: 2, Jitter: 0.5}
	var slept []time.Duration
	c := &Client{BaseURL: srv.URL, Policy: p, Sleep: func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}}
	if _, err := c.Catalog(context.Background()); err == nil {
		t.Fatal("503 on every attempt did not fail the fetch")
	}
	if len(slept) != p.MaxAttempts-1 {
		t.Fatalf("slept %d times, want %d", len(slept), p.MaxAttempts-1)
	}
	shaved := false
	for i, d := range slept {
		full := p.Delay(i+1, nil)
		if d > full {
			t.Errorf("delay %d is %v, above the unjittered %v", i+1, d, full)
		}
		shaved = shaved || d < full
	}
	if !shaved {
		t.Errorf("every delay equals the unjittered schedule: %v", slept)
	}
}

func TestClientPermanent4xx(t *testing.T) {
	var calls int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt64(&calls, 1)
		http.Error(w, "no such render", http.StatusNotFound)
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, Policy: retry.Policy{MaxAttempts: 5, Base: 1}, Sleep: noSleep}
	if _, err := c.RenderDataset(context.Background(), "x", "y", "text"); err == nil {
		t.Fatal("expected error")
	}
	if n := atomic.LoadInt64(&calls); n != 1 {
		t.Errorf("4xx retried %d times", n)
	}
}
