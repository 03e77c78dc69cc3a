package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Transport is a worker's view of one campaign's coordinator — the
// seam chaos tests inject faults through, mirroring diskio.FS. The
// real implementation is HTTPTransport; Hub.LocalTransport serves
// in-process workers and tests.
type Transport interface {
	Info(ctx context.Context) (*WorkInfo, error)
	Acquire(ctx context.Context, req AcquireRequest) (*AcquireResponse, error)
	Renew(ctx context.Context, req RenewRequest) (*RenewResponse, error)
	Deliver(ctx context.Context, req DeliverRequest) (*DeliverResponse, error)
}

// RPCError is a coordinator-side rejection (non-2xx HTTP status or a
// hub-level lookup failure).
type RPCError struct {
	Status int
	Msg    string
}

func (e *RPCError) Error() string {
	return fmt.Sprintf("dist: rpc failed: status %d: %s", e.Status, e.Msg)
}

// Unwrap maps a 404 to ErrUnknownCampaign: the hub answers 404 exactly
// when no coordinator is registered under the campaign name.
func (e *RPCError) Unwrap() error {
	if e.Status == http.StatusNotFound {
		return ErrUnknownCampaign
	}
	return nil
}

// localTransport resolves the coordinator through the hub on every
// call, so a worker outlives register/unregister cycles the same way
// an HTTP client would (it just starts seeing errors).
type localTransport struct {
	hub  *Hub
	name string
}

// LocalTransport returns an in-process Transport for the named
// campaign on this hub.
func (h *Hub) LocalTransport(name string) Transport {
	return &localTransport{hub: h, name: name}
}

func (t *localTransport) coord() (*Coordinator, error) {
	c, ok := t.hub.Get(t.name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCampaign, t.name)
	}
	return c, nil
}

func (t *localTransport) Info(ctx context.Context) (*WorkInfo, error) {
	c, err := t.coord()
	if err != nil {
		return nil, err
	}
	return c.Info(), nil
}

func (t *localTransport) Acquire(ctx context.Context, req AcquireRequest) (*AcquireResponse, error) {
	c, err := t.coord()
	if err != nil {
		return nil, err
	}
	return c.Acquire(req), nil
}

func (t *localTransport) Renew(ctx context.Context, req RenewRequest) (*RenewResponse, error) {
	c, err := t.coord()
	if err != nil {
		return nil, err
	}
	return c.Renew(req), nil
}

func (t *localTransport) Deliver(ctx context.Context, req DeliverRequest) (*DeliverResponse, error) {
	c, err := t.coord()
	if err != nil {
		return nil, err
	}
	return c.Deliver(req), nil
}

// HTTPTransport talks to a coordinator hub over HTTP.
type HTTPTransport struct {
	// BaseURL is the hub root, e.g. "http://host:port".
	BaseURL string
	// Campaign is the hub registration name.
	Campaign string
	// Client is the HTTP client; nil means http.DefaultClient.
	Client *http.Client
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

func (t *HTTPTransport) url(parts ...string) string {
	base := strings.TrimSuffix(t.BaseURL, "/")
	return base + "/dist/v1/campaigns/" + t.Campaign + strings.Join(parts, "")
}

// doJSON performs one request and decodes the response into out.
func doJSON(ctx context.Context, client *http.Client, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return &RPCError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(data))}
	}
	return json.Unmarshal(data, out)
}

func (t *HTTPTransport) Info(ctx context.Context) (*WorkInfo, error) {
	var out WorkInfo
	if err := doJSON(ctx, t.client(), http.MethodGet, t.url(), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (t *HTTPTransport) Acquire(ctx context.Context, req AcquireRequest) (*AcquireResponse, error) {
	var out AcquireResponse
	if err := doJSON(ctx, t.client(), http.MethodPost, t.url("/acquire"), req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (t *HTTPTransport) Renew(ctx context.Context, req RenewRequest) (*RenewResponse, error) {
	var out RenewResponse
	if err := doJSON(ctx, t.client(), http.MethodPost, t.url("/renew"), req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (t *HTTPTransport) Deliver(ctx context.Context, req DeliverRequest) (*DeliverResponse, error) {
	var out DeliverResponse
	if err := doJSON(ctx, t.client(), http.MethodPost, t.url("/deliver"), req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ListCampaigns fetches the hub's campaign directory — what the
// `mcmutants work` verb polls to find work.
func ListCampaigns(ctx context.Context, baseURL string, client *http.Client) ([]WorkInfo, error) {
	if client == nil {
		client = http.DefaultClient
	}
	var out []WorkInfo
	url := strings.TrimSuffix(baseURL, "/") + "/dist/v1/campaigns"
	if err := doJSON(ctx, client, http.MethodGet, url, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}
