package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// retryHarness is an httptest server that refuses the first `refuse`
// requests with the given status (and optional Retry-After) before
// answering an empty job list.
type retryHarness struct {
	refuse     int32
	status     int
	retryAfter string
	hits       atomic.Int32
}

func (h *retryHarness) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := h.hits.Add(1)
	if n <= h.refuse {
		if h.retryAfter != "" {
			w.Header().Set("Retry-After", h.retryAfter)
		}
		http.Error(w, `{"error":"busy"}`, h.status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"jobs":[]}`))
}

// sleepFunc is a Clock whose Sleep hands each delay to the function
// instead of waiting.
type sleepFunc func(time.Duration)

func (sleepFunc) Now() time.Time { return time.Time{} }

func (f sleepFunc) Sleep(ctx context.Context, d time.Duration) error {
	f(d)
	return ctx.Err()
}

// retryClient builds a Client against the harness that records every
// backoff delay instead of sleeping.
func retryClient(t *testing.T, h http.Handler, delays *[]time.Duration) *Client {
	t.Helper()
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	return &Client{
		BaseURL: hs.URL,
		Clock:   sleepFunc(func(d time.Duration) { *delays = append(*delays, d) }),
		Rand:    func() float64 { return 1 }, // deterministic: top of the jitter window
	}
}

func TestClientRetries429ThenSucceeds(t *testing.T) {
	h := &retryHarness{refuse: 2, status: http.StatusTooManyRequests}
	var delays []time.Duration
	c := retryClient(t, h, &delays)
	jobs, err := c.Jobs(context.Background())
	if err != nil {
		t.Fatalf("Jobs after retries: %v", err)
	}
	if len(jobs) != 0 {
		t.Fatalf("jobs = %v", jobs)
	}
	if got := h.hits.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	// Exponential with full jitter at Rand=1: exactly base<<attempt.
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	if len(delays) != len(want) || delays[0] != want[0] || delays[1] != want[1] {
		t.Fatalf("delays = %v, want %v", delays, want)
	}
}

func TestClientHonorsRetryAfterCapped(t *testing.T) {
	h := &retryHarness{refuse: 1, status: http.StatusServiceUnavailable, retryAfter: "7"}
	var delays []time.Duration
	c := retryClient(t, h, &delays)
	if _, err := c.Jobs(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Retry-After asked for 7s; the 2s cap wins so a hostile or
	// confused server cannot park the client.
	if len(delays) != 1 || delays[0] != 2*time.Second {
		t.Fatalf("delays = %v, want [2s]", delays)
	}
}

func TestClientRetryExhaustionSurfacesAPIError(t *testing.T) {
	h := &retryHarness{refuse: 1 << 30, status: http.StatusTooManyRequests}
	var delays []time.Duration
	c := retryClient(t, h, &delays)
	c.MaxRetries = 2
	_, err := c.Jobs(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want APIError 429", err)
	}
	if got := h.hits.Load(); got != 3 { // 1 try + 2 retries
		t.Fatalf("attempts = %d, want 3", got)
	}
}

func TestClientNegativeMaxRetriesDisables(t *testing.T) {
	h := &retryHarness{refuse: 1, status: http.StatusServiceUnavailable}
	var delays []time.Duration
	c := retryClient(t, h, &delays)
	c.MaxRetries = -1
	_, err := c.Jobs(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want APIError 503", err)
	}
	if got := h.hits.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (retries disabled)", got)
	}
	if len(delays) != 0 {
		t.Fatalf("slept %v with retries disabled", delays)
	}
}

// flakyTransport fails the first `fail` round trips at the transport
// layer (connection refused analogue), then delegates.
type flakyTransport struct {
	fail atomic.Int32
	next http.RoundTripper
}

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if f.fail.Add(-1) >= 0 {
		return nil, errors.New("simulated connection reset")
	}
	return f.next.RoundTrip(r)
}

func TestClientRetriesTransportErrors(t *testing.T) {
	h := &retryHarness{}
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	ft := &flakyTransport{next: http.DefaultTransport}
	ft.fail.Store(2)
	var delays []time.Duration
	c := &Client{
		BaseURL:    hs.URL,
		HTTPClient: &http.Client{Transport: ft},
		Clock:      sleepFunc(func(d time.Duration) { delays = append(delays, d) }),
		Rand:       func() float64 { return 0 },
	}
	if _, err := c.Jobs(context.Background()); err != nil {
		t.Fatalf("Jobs through flaky transport: %v", err)
	}
	if got := h.hits.Load(); got != 1 {
		t.Fatalf("server hits = %d, want 1", got)
	}
	if len(delays) != 2 {
		t.Fatalf("delays = %v, want 2 backoffs", delays)
	}
}

func TestClientRetryRespectsContext(t *testing.T) {
	h := &retryHarness{refuse: 1 << 30, status: http.StatusTooManyRequests}
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{
		BaseURL: hs.URL,
		Clock:   sleepFunc(func(time.Duration) { cancel() }), // cancel during the first backoff
	}
	if _, err := c.Jobs(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := h.hits.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1", got)
	}
}

func TestClientBackoffBounds(t *testing.T) {
	c := &Client{}
	// Rand=0 → lower edge d/2; Rand≈1 → upper edge d.
	c.Rand = func() float64 { return 0 }
	if d := c.backoff(0, ""); d != 50*time.Millisecond {
		t.Fatalf("attempt 0 low edge = %v, want 50ms", d)
	}
	c.Rand = func() float64 { return 0.999999 }
	if d := c.backoff(3, ""); d < 400*time.Millisecond || d > 800*time.Millisecond {
		t.Fatalf("attempt 3 = %v, want within [400ms, 800ms]", d)
	}
	// Huge attempt numbers saturate at the cap instead of overflowing.
	if d := c.backoff(62, ""); d > 2*time.Second {
		t.Fatalf("attempt 62 = %v, want <= 2s", d)
	}
	// Malformed Retry-After falls back to the computed schedule.
	if d := c.backoff(0, "soon"); d > 100*time.Millisecond {
		t.Fatalf("malformed Retry-After = %v, want <= 100ms", d)
	}
}
