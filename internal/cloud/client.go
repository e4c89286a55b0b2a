package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// RetryPolicy controls the client's backoff retries. The service's compute
// endpoints are pure functions of the request (idempotent), so retrying a
// POST is safe; the client still retries only *retryable* outcomes:
// connection-level errors, 429 (shed by admission control) and 503
// (transient degradation), honoring any Retry-After the server sent.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 4; 1 disables retries).
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff: attempt n sleeps a
	// uniformly random duration in [0, min(MaxBackoff, BaseBackoff·2ⁿ)]
	// ("full jitter"), never less than the server's Retry-After
	// (default 100 ms).
	BaseBackoff time.Duration
	// MaxBackoff caps a single sleep (default 2 s).
	MaxBackoff time.Duration
	// Jitter optionally supplies the backoff's randomness (e.g.
	// rand.NewSource(42) for reproducible tests). Nil uses a process-wide
	// source seeded once at startup — NOT one source per client, which
	// under a fleet of clients created in the same nanosecond would
	// produce identical jitter sequences and synchronized retry storms,
	// the exact thundering herd the jitter exists to break up.
	Jitter rand.Source
}

func (p *RetryPolicy) applyDefaults() {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff == 0 {
		p.BaseBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = 2 * time.Second
	}
}

// ClientOption customizes NewClient.
type ClientOption func(*Client)

// WithRetryPolicy replaces the default retry policy.
func WithRetryPolicy(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p }
}

// WithDeadlineHint asks the server to spend at most d computing each
// request (sent as the X-Deadline-Ms header; the server caps it at its
// configured maximum). Degraded-but-fast answers come back instead of
// slow full ones — the right trade for a vehicle already in motion.
func WithDeadlineHint(d time.Duration) ClientOption {
	return func(c *Client) { c.deadlineHint = d }
}

// Client talks to a vehicular-cloud server. Safe for concurrent use.
type Client struct {
	base         string
	http         *http.Client
	retry        RetryPolicy
	deadlineHint time.Duration

	mu  sync.Mutex
	rng *rand.Rand // per-client jitter source when RetryPolicy.Jitter is set, guarded by mu; nil = shared jitterRNG
}

// NewClient returns a client for a base URL like "http://127.0.0.1:8080".
func NewClient(baseURL string, opts ...ClientOption) (*Client, error) {
	if baseURL == "" {
		return nil, fmt.Errorf("cloud: empty base URL")
	}
	c := &Client{
		base: baseURL,
		http: &http.Client{Timeout: 30 * time.Second},
	}
	for _, opt := range opts {
		opt(c)
	}
	c.retry.applyDefaults()
	if c.retry.Jitter != nil {
		c.rng = rand.New(c.retry.Jitter)
	}
	return c, nil
}

// jitterRNG is the process-wide backoff jitter source shared by clients
// that did not supply RetryPolicy.Jitter. Seeded once, so every client
// draws from one stream instead of each re-seeding from the clock.
var (
	jitterMu sync.Mutex
	//lint:allow detcheck retry jitter is deliberately nondeterministic: one process-wide clock-seeded stream desynchronizes client backoff without per-call re-seeding
	jitterRNG = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// APIError is a non-2xx response from the cloud.
type APIError struct {
	Status int
	Msg    string
	// RetryAfter is the server's Retry-After hint (0 when absent).
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("cloud: HTTP %d: %s", e.Status, e.Msg)
}

// retryableStatus reports whether a status code may be retried: 429 is
// admission-control shedding, 503 a transient failure (both arrive with
// Retry-After). cloudd itself never answers 502/504; they come only from
// a proxy or load balancer in front of it whose upstream is dying or
// partitioned, and the next attempt may be routed around it. Anything
// else (400s, 422, 500) would fail identically on retry.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff returns the sleep before attempt n (0-based), full jitter,
// floored at the server's Retry-After hint.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	ceil := c.retry.BaseBackoff << attempt
	if ceil > c.retry.MaxBackoff || ceil <= 0 {
		ceil = c.retry.MaxBackoff
	}
	var d time.Duration
	if c.rng != nil {
		c.mu.Lock()
		d = time.Duration(c.rng.Int63n(int64(ceil) + 1))
		c.mu.Unlock()
	} else {
		jitterMu.Lock()
		d = time.Duration(jitterRNG.Int63n(int64(ceil) + 1))
		jitterMu.Unlock()
	}
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

// do performs one HTTP exchange with retries and decodes a 200 into out.
// body == nil issues a GET, otherwise a POST of the JSON body.
func (c *Client) do(ctx context.Context, path string, body []byte, out any) error {
	var lastErr error
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			var retryAfter time.Duration
			var apiErr *APIError
			if errors.As(lastErr, &apiErr) {
				retryAfter = apiErr.RetryAfter
			}
			t := time.NewTimer(c.backoff(attempt-1, retryAfter))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return fmt.Errorf("cloud: %s: %w (last attempt: %w)", path, ctx.Err(), lastErr)
			}
		}
		method, reader := http.MethodGet, io.Reader(nil)
		if body != nil {
			method, reader = http.MethodPost, bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, reader)
		if err != nil {
			return fmt.Errorf("cloud: building request: %w", err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.deadlineHint > 0 {
			req.Header.Set(DeadlineHeader, strconv.FormatInt(c.deadlineHint.Milliseconds(), 10))
		}
		resp, err := c.http.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("cloud: %s call: %w", path, err)
			}
			// Connection-level failure (refused, reset, timeout): the
			// request never completed server-side work we could observe,
			// and the endpoints are idempotent — retry.
			lastErr = fmt.Errorf("cloud: %s call: %w", path, err)
			continue
		}
		if resp.StatusCode == http.StatusOK {
			err := json.NewDecoder(resp.Body).Decode(out)
			_ = resp.Body.Close() // decode already consumed the stream's error
			if err != nil {
				return fmt.Errorf("cloud: decoding %s response: %w", path, err)
			}
			return nil
		}
		apiErr := decodeAPIError(resp)
		_ = resp.Body.Close() // decodeAPIError already drained the body
		if !retryableStatus(resp.StatusCode) {
			return apiErr
		}
		lastErr = apiErr
	}
	return lastErr
}

// Optimize requests an optimal velocity profile.
func (c *Client) Optimize(ctx context.Context, req Request) (*Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("cloud: encoding request: %w", err)
	}
	var out Response
	if err := c.do(ctx, "/v1/optimize", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Advise asks the service when to depart within a window.
func (c *Client) Advise(ctx context.Context, req AdviseRequest) (*AdviseResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("cloud: encoding advise request: %w", err)
	}
	var out AdviseResponse
	if err := c.do(ctx, "/v1/advise", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// OptimizeBatch submits a fleet's worth of requests in one call. Item
// failures come back per item in BatchResponse.Results; only transport
// and whole-batch failures surface as an error.
func (c *Client) OptimizeBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("cloud: encoding batch request: %w", err)
	}
	var out BatchResponse
	if err := c.do(ctx, "/v1/optimize/batch", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health checks service liveness.
func (c *Client) Health(ctx context.Context) error {
	var out map[string]string
	return c.do(ctx, "/v1/health", nil, &out)
}

// Routes lists registered route names.
func (c *Client) Routes(ctx context.Context) ([]string, error) {
	var out struct {
		Routes []string `json:"routes"`
	}
	if err := c.do(ctx, "/v1/routes", nil, &out); err != nil {
		return nil, err
	}
	return out.Routes, nil
}

// Stats fetches service counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	if err := c.do(ctx, "/v1/stats", nil, &out); err != nil {
		return Stats{}, err
	}
	return out, nil
}

func decodeAPIError(resp *http.Response) *APIError {
	var retryAfter time.Duration
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec > 0 {
		retryAfter = time.Duration(sec) * time.Second
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return &APIError{Status: resp.StatusCode, Msg: e.Error, RetryAfter: retryAfter}
	}
	return &APIError{Status: resp.StatusCode, Msg: string(body), RetryAfter: retryAfter}
}
