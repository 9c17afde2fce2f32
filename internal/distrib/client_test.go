package distrib

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/retry"
)

// TestClientRetriesAreJittered checks that workers which fail together do
// not retry in lockstep: against a coordinator that answers 503, no delay
// exceeds the unjittered schedule and at least one falls below it.
func TestClientRetriesAreJittered(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "unavailable", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	p := retry.Policy{MaxAttempts: 8, Base: 64 * time.Millisecond, Factor: 2, Jitter: 0.5}
	var slept []time.Duration
	c := &Client{BaseURL: srv.URL, Worker: "w", Policy: p, Sleep: func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}}
	if _, err := c.Status(context.Background()); err == nil {
		t.Fatal("503 on every attempt did not fail the call")
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
