package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/clock"
)

// Client is a minimal Go client for the campaign server API — what
// the loadgen example and the integration tests drive the server
// with.
//
// Requests are retried transparently. Every API call is idempotent —
// submission is content-addressed (the same spec maps to the same job),
// reads are reads, and cancellation converges — so a 429 (admission
// pushback), a 503 (draining peer behind a balancer) or a transient
// transport error is retried with capped jittered exponential backoff,
// honoring the server's Retry-After header when present. Callers see
// only the final outcome.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// APIKey, when set, identifies the client for admission control
	// (the X-API-Key header); otherwise the remote address is used.
	APIKey string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client

	// MaxRetries bounds retry attempts after the first try; 0 means 4,
	// negative disables retrying.
	MaxRetries int
	// Clock waits out backoff delays; nil means the system clock.
	// Tests record the delays instead of sleeping.
	Clock clock.Clock
	// Rand is the jitter source in [0, 1); nil means math/rand.
	Rand func() float64
}

// APIError is a non-2xx response decoded from the server's JSON error
// body.
type APIError struct {
	StatusCode int
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve: HTTP %d: %s", e.StatusCode, e.Message)
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// maxRetries resolves the retry budget (attempts after the first).
func (c *Client) maxRetries() int {
	if c.MaxRetries < 0 {
		return 0
	}
	if c.MaxRetries == 0 {
		return 4
	}
	return c.MaxRetries
}

// Retry delays: full jitter over [d/2, d] of base<<attempt, where d
// and any Retry-After the server names are capped at retryCap, so a
// hostile or confused server cannot park the client.
const (
	retryBase = 100 * time.Millisecond
	retryCap  = 2 * time.Second
)

// backoff computes the delay before retry number attempt (0-based):
// Retry-After when the server named one, else clock.Backoff.
func (c *Client) backoff(attempt int, retryAfter string) time.Duration {
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs >= 0 {
		return min(time.Duration(secs)*time.Second, retryCap)
	}
	rnd := c.Rand
	if rnd == nil {
		rnd = rand.Float64
	}
	return clock.Backoff(retryBase, retryCap, attempt, rnd())
}

// retryStatus reports response codes worth retrying: admission
// pushback (429) and unavailability (503), both of which mean the
// request was refused before any work happened.
func retryStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// roundTrip issues one request with retries, rebuilding the body each
// attempt. The caller owns the returned response body. Transport-level
// errors are treated as transient (safe because the API is idempotent);
// a live non-retryable response — success or a real error — is final.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	max := c.maxRetries()
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.APIKey != "" {
			req.Header.Set("X-API-Key", c.APIKey)
		}
		resp, err := c.http().Do(req)
		retryAfter := ""
		switch {
		case err != nil:
			if ctx.Err() != nil || attempt >= max {
				return nil, err
			}
		case retryStatus(resp.StatusCode) && attempt < max:
			retryAfter = resp.Header.Get("Retry-After")
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
		default:
			return resp, nil
		}
		clk := c.Clock
		if clk == nil {
			clk = clock.System{}
		}
		if err := clk.Sleep(ctx, c.backoff(attempt, retryAfter)); err != nil {
			return nil, err
		}
	}
}

// apiError translates a non-2xx body into *APIError.
func apiError(code int, data []byte) error {
	var eb struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(data))
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	return &APIError{StatusCode: code, Message: msg}
}

// do issues a request and decodes a JSON response into out (when
// non-nil), translating error bodies into *APIError.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	resp, err := c.roundTrip(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return apiError(resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Submit posts a job spec. The response says whether the spec mapped
// to an existing job (idempotent resubmission).
func (c *Client) Submit(ctx context.Context, spec JobSpec) (*SubmitResponse, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var out SubmitResponse
	if err := c.do(ctx, http.MethodPost, "/api/v1/jobs", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches one job record.
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	var out Job
	if err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Jobs lists every tracked job, oldest first.
func (c *Client) Jobs(ctx context.Context) ([]*Job, error) {
	var out struct {
		Jobs []*Job `json:"jobs"`
	}
	if err := c.do(ctx, http.MethodGet, "/api/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Report fetches a completed job's artifact bytes — byte-identical to
// the CLI's -out file for the same spec.
func (c *Client) Report(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.roundTrip(ctx, http.MethodGet, "/api/v1/jobs/"+id+"/report", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp.StatusCode, data)
	}
	return data, nil
}

// Cancel requests cancellation; the job drains gracefully.
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	var out Job
	if err := c.do(ctx, http.MethodDelete, "/api/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Wait polls until the job reaches a terminal state or ctx ends.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*Job, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if j.State.Terminal() {
			return j, nil
		}
		select {
		case <-ctx.Done():
			return j, ctx.Err()
		case <-t.C:
		}
	}
}

// Events streams the job's SSE feed, invoking fn per event until the
// stream ends (the server closes it after the terminal event), fn
// returns a non-nil error, or ctx is cancelled. A nil return means
// the stream ended normally.
func (c *Client) Events(ctx context.Context, id string, fn func(name string, data json.RawMessage) error) error {
	// Connection establishment retries like any other call; a stream
	// that dies mid-flight is not resumed (events are cumulative — the
	// caller reconnects and the replay catches it up).
	resp, err := c.roundTrip(ctx, http.MethodGet, "/api/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return apiError(resp.StatusCode, data)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	name, data := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if name != "" || data != "" {
				if err := fn(name, json.RawMessage(data)); err != nil {
					return err
				}
			}
			name, data = "", ""
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}
