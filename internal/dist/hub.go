package dist

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
)

// Hub exposes registered coordinators over HTTP. One hub serves any
// number of campaigns (the campaign server registers each submitted
// distributed job; the CLI registers its one or two campaigns), each
// under /dist/v1/campaigns/{name}.
type Hub struct {
	mu     sync.Mutex
	seq    int
	coords map[string]*hubEntry
	mux    *http.ServeMux
}

type hubEntry struct {
	seq   int
	coord *Coordinator
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	h := &Hub{coords: map[string]*hubEntry{}}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /dist/v1/campaigns", h.handleList)
	mux.HandleFunc("GET /dist/v1/campaigns/{name}", h.handleInfo)
	mux.HandleFunc("POST /dist/v1/campaigns/{name}/acquire", h.handleAcquire)
	mux.HandleFunc("POST /dist/v1/campaigns/{name}/renew", h.handleRenew)
	mux.HandleFunc("POST /dist/v1/campaigns/{name}/deliver", h.handleDeliver)
	h.mux = mux
	return h
}

// Register publishes a coordinator under name. Names must be unique
// while registered.
func (h *Hub) Register(name string, c *Coordinator) error {
	if name == "" {
		return fmt.Errorf("dist: campaign registration needs a name")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.coords[name]; dup {
		return fmt.Errorf("dist: campaign %q already registered", name)
	}
	h.seq++
	h.coords[name] = &hubEntry{seq: h.seq, coord: c}
	return nil
}

// Unregister withdraws a campaign; subsequent RPCs for it fail.
func (h *Hub) Unregister(name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.coords, name)
}

// Get looks a registered coordinator up.
func (h *Hub) Get(name string) (*Coordinator, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.coords[name]
	if !ok {
		return nil, false
	}
	return e.coord, true
}

// List returns the registered campaigns' WorkInfo in registration
// order — the order workers should drain them in.
func (h *Hub) List() []WorkInfo {
	h.mu.Lock()
	entries := make([]*hubEntry, 0, len(h.coords))
	for _, e := range h.coords {
		entries = append(entries, e)
	}
	h.mu.Unlock()
	sort.Slice(entries, func(a, b int) bool { return entries[a].seq < entries[b].seq })
	out := make([]WorkInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, *e.coord.Info())
	}
	return out
}

// ServeHTTP implements http.Handler; mount the hub at the server
// root (it routes everything under /dist/v1/).
func (h *Hub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *Hub) lookup(w http.ResponseWriter, r *http.Request) (*Coordinator, bool) {
	c, ok := h.Get(r.PathValue("name"))
	if !ok {
		http.Error(w, ErrUnknownCampaign.Error(), http.StatusNotFound)
		return nil, false
	}
	return c, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("dist: bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func (h *Hub) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, h.List())
}

func (h *Hub) handleInfo(w http.ResponseWriter, r *http.Request) {
	c, ok := h.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, c.Info())
}

func (h *Hub) handleAcquire(w http.ResponseWriter, r *http.Request) {
	c, ok := h.lookup(w, r)
	if !ok {
		return
	}
	var req AcquireRequest
	if !readJSON(w, r, &req) {
		return
	}
	writeJSON(w, c.Acquire(req))
}

func (h *Hub) handleRenew(w http.ResponseWriter, r *http.Request) {
	c, ok := h.lookup(w, r)
	if !ok {
		return
	}
	var req RenewRequest
	if !readJSON(w, r, &req) {
		return
	}
	writeJSON(w, c.Renew(req))
}

func (h *Hub) handleDeliver(w http.ResponseWriter, r *http.Request) {
	c, ok := h.lookup(w, r)
	if !ok {
		return
	}
	var req DeliverRequest
	if !readJSON(w, r, &req) {
		return
	}
	writeJSON(w, c.Deliver(req))
}
