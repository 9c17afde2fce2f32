package queryd

import (
	"strings"
	"testing"
	"time"
)

// fillPanicking runs a panicking fill for key and returns what the caller of
// getOrFill saw come out of it.
func fillPanicking(c *cache[*entry], key string, started chan<- struct{}, blow <-chan struct{}) (recovered any) {
	defer func() { recovered = recover() }()
	c.getOrFill(key, func() (*entry, error) {
		close(started)
		<-blow
		panic("boom")
	})
	return nil
}

// TestCachePanickingFillReleasesKey: net/http recovers a handler panic, so a
// fill that panics must release its flight or the key is wedged for the life
// of the server. The panic continues in the leader; the next request for the
// key fills normally.
func TestCachePanickingFillReleasesKey(t *testing.T) {
	c := newCache[*entry](1 << 20)
	blow := make(chan struct{})
	close(blow)
	if p := fillPanicking(c, "k", make(chan struct{}), blow); p != "boom" {
		t.Fatalf("leader recovered %v, want the fill's own panic value", p)
	}
	ent, hit, err := c.getOrFill("k", func() (*entry, error) { return &entry{Body: []byte("ok")}, nil })
	if err != nil || hit || string(ent.Body) != "ok" {
		t.Fatalf("fill after a panicked fill: ent=%v hit=%v err=%v", ent, hit, err)
	}
	if _, hit, _ := c.getOrFill("k", func() (*entry, error) { return nil, nil }); !hit {
		t.Fatal("the good fill was not cached")
	}
}

// TestCachePanickingFillFreesFollower: a follower of a flight whose fill
// panics returns an error instead of waiting forever. Before the flight was
// released in a defer it stayed in the map, so a follower hung whether it
// arrived before the panic or after; here it normally arrives before (the
// sleep only makes that the likely order — arriving after, it fills for
// itself, which is just as good).
func TestCachePanickingFillFreesFollower(t *testing.T) {
	c := newCache[*entry](1 << 20)
	started, blow := make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() { leader <- fillPanicking(c, "k", started, blow) }()
	<-started

	calling := make(chan struct{})
	follower := make(chan error, 1)
	go func() {
		close(calling)
		_, _, err := c.getOrFill("k", func() (*entry, error) { return &entry{}, nil })
		follower <- err
	}()
	<-calling
	time.Sleep(20 * time.Millisecond)
	close(blow)

	select {
	case err := <-follower:
		if err != nil && !strings.Contains(err.Error(), "fill for k panicked: boom") {
			t.Fatalf("follower error %q", err)
		}
		t.Logf("follower returned: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("follower still parked on a flight whose fill panicked")
	}
	if p := <-leader; p != "boom" {
		t.Fatalf("leader recovered %v", p)
	}
}
