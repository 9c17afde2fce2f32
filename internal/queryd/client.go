package queryd

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"

	"repro/internal/retry"
)

// Client fetches renders and catalog listings from a queryd server. It
// keeps an in-memory validator cache: responses are remembered with their
// ETag, revalidated with If-None-Match, and served locally on 304 — the
// client-side half of the server's digest-as-ETag contract. Transient
// failures (network errors, 5xx, 429) retry on the shared backoff policy;
// 4xx responses are permanent.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:9010".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Policy is the retry schedule; the zero value gets retry.RPC(). Jitter
	// draws from math/rand/v2.
	Policy retry.Policy
	// Sleep is the retry seam for deterministic tests.
	Sleep retry.Sleeper

	mu     sync.Mutex
	etags  map[string]cachedBody // URL -> last validated response
	reval  int64                 // 304s served from the local cache
	filled int64                 // 200s that (re)filled the cache
}

type cachedBody struct {
	etag string
	body []byte
}

func (c *Client) policy() retry.Policy {
	if c.Policy.MaxAttempts == 0 {
		return retry.RPC()
	}
	return c.Policy
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Stats reports validator-cache traffic: how many fetches were revalidated
// (304, body served locally) vs filled (full 200 download).
func (c *Client) Stats() (revalidated, filled int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reval, c.filled
}

// RenderDataset fetches one dataset render ("tab1", …, or "all").
func (c *Client) RenderDataset(ctx context.Context, name, id, format string) ([]byte, error) {
	return c.get(ctx, fmt.Sprintf("/v1/datasets/%s/renders/%s?format=%s", name, id, format))
}

// RenderSweep fetches one sweep render ("whatif-grid", …, or "all").
func (c *Client) RenderSweep(ctx context.Context, name, id, format string) ([]byte, error) {
	return c.get(ctx, fmt.Sprintf("/v1/sweeps/%s/renders/%s?format=%s", name, id, format))
}

// Catalog fetches the raw catalog listing JSON.
func (c *Client) Catalog(ctx context.Context) ([]byte, error) {
	return c.get(ctx, "/v1/catalog")
}

// get performs one validator-cached GET with retries.
func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	url := strings.TrimRight(c.BaseURL, "/") + path
	var out []byte
	err := retry.Do(ctx, c.policy(), c.Sleep, rand.Float64, func(int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return retry.Permanent(err)
		}
		c.mu.Lock()
		cached, haveCached := c.etags[url]
		c.mu.Unlock()
		if haveCached {
			req.Header.Set("If-None-Match", cached.etag)
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return err // network: transient
		}
		defer resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusNotModified && haveCached:
			c.mu.Lock()
			c.reval++
			c.mu.Unlock()
			out = cached.body
			return nil
		case resp.StatusCode == http.StatusOK:
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				return err
			}
			if etag := resp.Header.Get("ETag"); etag != "" {
				c.mu.Lock()
				if c.etags == nil {
					c.etags = make(map[string]cachedBody)
				}
				c.etags[url] = cachedBody{etag: etag, body: body}
				c.filled++
				c.mu.Unlock()
			}
			out = body
			return nil
		default:
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
			err := fmt.Errorf("queryd client: GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
			// Client-side errors won't improve on retry; 429 and 5xx might.
			if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
				return retry.Permanent(err)
			}
			return err
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
