package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/retry"
)

// Client is the worker-side (and submitter-side) RPC stub. Every call
// retries transient failures — connection errors, 5xx — with the shared
// backoff policy; 4xx responses are permanent (retrying a malformed request
// cannot help).
type Client struct {
	// BaseURL is the coordinator's root, e.g. "http://127.0.0.1:9009".
	BaseURL string
	// Worker identifies this client in lease/complete requests.
	Worker string
	// HTTPClient defaults to a fresh client; the chaos harness swaps in a
	// fault-injecting transport here.
	HTTPClient *http.Client
	// Policy is the RPC retry schedule. The zero value gets a default tuned
	// for a lossy-but-alive network (6 attempts, 100ms base, jittered).
	Policy retry.Policy
	// Sleep/Rnd are retry seams for deterministic tests.
	Sleep retry.Sleeper
	Rnd   func() float64
}

func (c *Client) policy() retry.Policy {
	p := c.Policy
	if p.MaxAttempts == 0 {
		p = retry.Policy{MaxAttempts: 6, Base: 100 * time.Millisecond, Factor: 2, Max: 2 * time.Second, Jitter: 0.2}
	}
	return p
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// call POSTs (or GETs, for empty method paths starting "GET ") one JSON
// request and decodes the response, retrying transient failures.
func (c *Client) call(ctx context.Context, path string, req, resp any) error {
	var body []byte
	if req != nil {
		var err error
		body, err = json.Marshal(req)
		if err != nil {
			return retry.Permanent(fmt.Errorf("distrib: %w", err))
		}
	}
	return retry.Do(ctx, c.policy(), c.Sleep, c.Rnd, func(int) error {
		method := http.MethodPost
		url := strings.TrimRight(c.BaseURL, "/") + path
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		} else {
			method = http.MethodGet
		}
		hr, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return retry.Permanent(err)
		}
		hr.Header.Set("Content-Type", "application/json")
		res, err := c.http().Do(hr)
		if err != nil {
			return err // transport failure: retry
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(res.Body, 4096))
			err := fmt.Errorf("distrib: %s: %s: %s", path, res.Status, strings.TrimSpace(string(msg)))
			if res.StatusCode >= 400 && res.StatusCode < 500 {
				return retry.Permanent(err)
			}
			return err
		}
		if resp == nil {
			io.Copy(io.Discard, res.Body)
			return nil
		}
		if err := json.NewDecoder(res.Body).Decode(resp); err != nil {
			return fmt.Errorf("distrib: %s: decoding response: %w", path, err)
		}
		return nil
	})
}

// Submit attaches (or idempotently re-attaches) a job to the coordinator.
func (c *Client) Submit(ctx context.Context, req *JobRequest) error {
	return c.call(ctx, "/v1/job", req, nil)
}

// Lease asks for the next unit.
func (c *Client) Lease(ctx context.Context) (*LeaseResponse, error) {
	var resp LeaseResponse
	if err := c.call(ctx, "/v1/lease", &LeaseRequest{Worker: c.Worker}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Renew heartbeats a lease; ok=false means the lease was lost.
func (c *Client) Renew(ctx context.Context, unitID, token string) (bool, error) {
	var resp RenewResponse
	err := c.call(ctx, "/v1/renew", &RenewRequest{Worker: c.Worker, UnitID: unitID, Token: token}, &resp)
	if err != nil {
		return false, err
	}
	return resp.OK, nil
}

// Release hands an uncomputed unit back (graceful drain).
func (c *Client) Release(ctx context.Context, unitID, token string) error {
	return c.call(ctx, "/v1/release", &ReleaseRequest{Worker: c.Worker, UnitID: unitID, Token: token}, nil)
}

// Complete uploads a computed unit with its self-declared digest.
func (c *Client) Complete(ctx context.Context, unitID, token string, payload []byte, sha string) (string, error) {
	var resp CompleteResponse
	err := c.call(ctx, "/v1/complete", &CompleteRequest{
		Worker: c.Worker, UnitID: unitID, Token: token, SHA256: sha, Payload: payload,
	}, &resp)
	if err != nil {
		return "", err
	}
	return resp.Status, nil
}

// Status fetches the coordinator's progress snapshot.
func (c *Client) Status(ctx context.Context) (*StatusResponse, error) {
	var resp StatusResponse
	if err := c.call(ctx, "/v1/status", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// WaitComplete polls Status every two seconds until the coordinator's job is
// sealed, calling progress whenever the committed-unit count moves — the
// submit-and-wait half of `fleetgen -distributed` and `sweep -distributed`.
func (c *Client) WaitComplete(ctx context.Context, progress func(done, total int)) (*StatusResponse, error) {
	lastDone := -1
	for {
		st, err := c.Status(ctx)
		if err != nil {
			return nil, err
		}
		if st.HasJob && st.Done != lastDone {
			lastDone = st.Done
			progress(st.Done, st.Total)
		}
		if st.Complete {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(2 * time.Second):
		}
	}
}
