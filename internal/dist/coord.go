package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/sched"
)

// CoordinatorOptions tunes one campaign's coordination. The zero
// value is usable: 10s leases, ranges of 8 cells, 5 re-issues per
// cell, default worker-breaker thresholds, no stall bound.
type CoordinatorOptions struct {
	// LeaseTTL is the deadline workers must renew within. A lease not
	// renewed for this long is expired and its unresolved cells are
	// re-issued. It must comfortably exceed the longest single cell:
	// workers renew at cell boundaries. <= 0 means 10s.
	LeaseTTL time.Duration
	// RangeCells is how many cells one lease carries. < 1 means 8.
	RangeCells int
	// MaxReissues bounds how many times one cell is re-issued after
	// lease expiries before it is marked lost (completed by a
	// synthetic failure, degrading the campaign instead of hanging
	// it). < 1 means 5.
	MaxReissues int
	// Breaker sets the per-worker quarantine thresholds; nil means
	// sched's defaults (3 consecutive failures, cooldown 2).
	Breaker sched.BreakerOptions
	// StallTimeout, when positive, bounds how long the coordinator
	// waits with work outstanding and no worker RPC at all before it
	// marks every unresolved cell lost and completes degraded.
	StallTimeout time.Duration
	// Clock reads lease deadlines and stall times; nil means the
	// system clock. Deterministic tests inject clock.Fake.
	Clock clock.Clock
	// OnSegment, when non-nil, observes each segment the first time
	// it is accepted (never duplicates, never replayed seeds at
	// construction). The distributed campaign runner checkpoints
	// successful segments from it.
	OnSegment func(sched.Segment)
	// Logf, when non-nil, receives coordination events (expiries,
	// quarantines, losses) as log lines.
	Logf func(format string, args ...any)
}

func (o CoordinatorOptions) leaseTTL() time.Duration {
	if o.LeaseTTL <= 0 {
		return 10 * time.Second
	}
	return o.LeaseTTL
}

func (o CoordinatorOptions) rangeCells() int {
	if o.RangeCells < 1 {
		return 8
	}
	return o.RangeCells
}

func (o CoordinatorOptions) maxReissues() int {
	if o.MaxReissues < 1 {
		return 5
	}
	return o.MaxReissues
}

// lease is one outstanding range.
type lease struct {
	id       string
	worker   string
	cells    []int
	deadline time.Time
}

// workerState is everything the coordinator remembers about one
// worker identity.
type workerState struct {
	breaker   *sched.Breaker
	granted   int
	expired   int
	completed int
}

// Coordinator owns one campaign's distribution state: which cells
// are resolved (segments), which are leased, and which are waiting.
// All methods are safe for concurrent use; the HTTP hub and the
// in-process transport call straight into them.
type Coordinator struct {
	name string
	spec sched.Spec
	desc json.RawMessage
	opts CoordinatorOptions

	mu      sync.Mutex
	cond    *sync.Cond
	byKey   map[string]int // cell key -> spec index
	segs    map[string]sched.Segment
	pending []int // spec indexes waiting for a lease, ascending
	leases  map[string]*lease
	workers map[string]*workerState

	nextLease    int
	reissueCount map[int]int // spec index -> times re-issued
	reissues     int
	duplicates   int
	lost         int
	stalled      bool
	lastActivity time.Time
}

// NewCoordinator builds a coordinator for spec. desc is the opaque
// worker descriptor advertised via WorkInfo; seed holds segments
// already resolved (a resumed checkpoint's cells, marked Replayed).
func NewCoordinator(name string, spec sched.Spec, desc json.RawMessage, seed map[string]sched.Segment, opts CoordinatorOptions) (*Coordinator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Clock == nil {
		opts.Clock = clock.System{}
	}
	c := &Coordinator{
		name:         name,
		spec:         spec,
		desc:         desc,
		opts:         opts,
		byKey:        make(map[string]int, len(spec.Cells)),
		segs:         make(map[string]sched.Segment, len(spec.Cells)),
		leases:       map[string]*lease{},
		workers:      map[string]*workerState{},
		reissueCount: map[int]int{},
		lastActivity: opts.Clock.Now(),
	}
	c.cond = sync.NewCond(&c.mu)
	for i, cell := range spec.Cells {
		c.byKey[cell.Key] = i
	}
	for key, seg := range seed {
		i, ok := c.byKey[key]
		if !ok {
			return nil, fmt.Errorf("dist: seed segment %q is not a cell of campaign %q", key, spec.Name)
		}
		seg.Key = spec.Cells[i].Key
		c.segs[key] = seg
	}
	for i, cell := range spec.Cells {
		if _, done := c.segs[cell.Key]; !done {
			c.pending = append(c.pending, i)
		}
	}
	return c, nil
}

// Info describes the campaign to workers.
func (c *Coordinator) Info() *WorkInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastActivity = c.opts.Clock.Now()
	return &WorkInfo{
		Name:       c.name,
		Campaign:   c.spec.Name,
		Seed:       c.spec.Seed,
		Manifest:   c.spec.Manifest(),
		Cells:      len(c.spec.Cells),
		LeaseTTLMS: c.opts.leaseTTL().Milliseconds(),
		Descriptor: c.desc,
		Done:       c.completeLocked(),
	}
}

// Acquire hands the worker a leased range, a wait hint, or done.
func (c *Coordinator) Acquire(req AcquireRequest) *AcquireResponse {
	c.mu.Lock()
	now := c.opts.Clock.Now()
	c.lastActivity = now
	c.sweepLocked(now)
	resp := c.acquireLocked(req, now)
	c.finishLocked()
	c.mu.Unlock()
	return resp
}

func (c *Coordinator) acquireLocked(req AcquireRequest, now time.Time) *AcquireResponse {
	if c.completeLocked() {
		return &AcquireResponse{State: StateDone}
	}
	ttl := c.opts.leaseTTL()
	ws := c.workerLocked(req.Worker)
	if !ws.breaker.Allow() {
		// Quarantined: starved of ranges for the breaker's cooldown,
		// then one probation lease decides. Waiting a full TTL keeps a
		// flapping worker from consuming its cooldown instantly.
		return &AcquireResponse{State: StateWait, RetryAfterMS: ttl.Milliseconds()}
	}
	if len(c.pending) == 0 {
		// Everything is leased out; check back as leases expire.
		return &AcquireResponse{State: StateWait, RetryAfterMS: (ttl / 4).Milliseconds()}
	}
	n := c.opts.rangeCells()
	if n > len(c.pending) {
		n = len(c.pending)
	}
	cells := append([]int(nil), c.pending[:n]...)
	c.pending = c.pending[n:]
	c.nextLease++
	l := &lease{
		id:       fmt.Sprintf("lease-%d", c.nextLease),
		worker:   req.Worker,
		cells:    cells,
		deadline: now.Add(ttl),
	}
	c.leases[l.id] = l
	ws.granted++
	return &AcquireResponse{
		State: StateLease,
		Lease: &Lease{ID: l.id, Cells: cells, TTLMS: ttl.Milliseconds()},
	}
}

// Renew extends a lease's deadline; OK false means the lease is no
// longer the worker's and it must stop executing the range.
func (c *Coordinator) Renew(req RenewRequest) *RenewResponse {
	c.mu.Lock()
	now := c.opts.Clock.Now()
	c.lastActivity = now
	c.sweepLocked(now)
	l := c.leases[req.Lease]
	ok := l != nil && l.worker == req.Worker
	if ok {
		l.deadline = now.Add(c.opts.leaseTTL())
	}
	c.finishLocked()
	c.mu.Unlock()
	return &RenewResponse{OK: ok}
}

// Deliver merges a range's resolved segments. Novel segments are
// accepted whether or not the lease is still live — a zombie's work
// is identical to a re-execution's, so accepting it is free —
// and duplicates are discarded by cell identity, first-wins.
func (c *Coordinator) Deliver(req DeliverRequest) *DeliverResponse {
	c.mu.Lock()
	now := c.opts.Clock.Now()
	c.lastActivity = now
	c.sweepLocked(now)
	resp := &DeliverResponse{State: DeliverOK}
	for _, seg := range req.Segments {
		if c.acceptLocked(seg) {
			resp.Accepted++
		} else {
			resp.Duplicates++
			c.duplicates++
		}
	}
	l := c.leases[req.Lease]
	if l == nil || l.worker != req.Worker {
		resp.State = DeliverLost
	} else {
		delete(c.leases, req.Lease)
		ws := c.workerLocked(req.Worker)
		complete := true
		for _, i := range l.cells {
			if _, done := c.segs[c.spec.Cells[i].Key]; !done {
				// The worker gave the range up (drain): back to pending.
				c.pending = append(c.pending, i)
				complete = false
			}
		}
		if !complete {
			sort.Ints(c.pending)
		} else {
			ws.completed++
		}
		ws.breaker.Observe(complete)
	}
	c.finishLocked()
	c.mu.Unlock()
	return resp
}

// acceptLocked merges one segment, reporting whether it was novel.
// Segments for unknown cells or replayed-marked wire segments are
// rejected as duplicates-equivalent (nothing is owed for them).
func (c *Coordinator) acceptLocked(seg sched.Segment) bool {
	i, ok := c.byKey[seg.Key]
	if !ok {
		return false
	}
	if _, done := c.segs[seg.Key]; done {
		return false
	}
	seg.Replayed = false
	seg.Key = c.spec.Cells[i].Key
	c.segs[seg.Key] = seg
	if c.opts.OnSegment != nil {
		c.opts.OnSegment(seg)
	}
	return true
}

// Sweep expires overdue leases and applies the stall bound; the wait
// loop calls it on a timer so expiry does not depend on RPC traffic.
func (c *Coordinator) Sweep() {
	c.mu.Lock()
	c.sweepLocked(c.opts.Clock.Now())
	c.finishLocked()
	c.mu.Unlock()
}

func (c *Coordinator) sweepLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.deadline) {
			continue
		}
		delete(c.leases, id)
		ws := c.workerLocked(l.worker)
		ws.expired++
		ws.breaker.Observe(false)
		expired := 0
		for _, i := range l.cells {
			key := c.spec.Cells[i].Key
			if _, done := c.segs[key]; done {
				continue
			}
			expired++
			c.reissueCount[i]++
			c.reissues++
			if c.reissueCount[i] > c.opts.maxReissues() {
				c.loseLocked(i, fmt.Sprintf("dist: cell lost: %d leases expired without a result (last worker %s)",
					c.reissueCount[i], l.worker))
				continue
			}
			c.pending = append(c.pending, i)
		}
		sort.Ints(c.pending)
		c.logf("dist: lease %s (worker %s) expired; re-issuing %d cells", id, l.worker, expired)
		if ws.breaker.Open() {
			c.logf("dist: worker %s quarantined after repeated lease failures", l.worker)
		}
	}
	if st := c.opts.StallTimeout; st > 0 && !c.completeLocked() && now.Sub(c.lastActivity) >= st {
		c.stalled = true
		c.logf("dist: campaign %s stalled: no worker activity for %s; marking unresolved cells lost", c.name, st)
		c.leases = map[string]*lease{}
		c.pending = nil
		for i, cell := range c.spec.Cells {
			if _, done := c.segs[cell.Key]; !done {
				c.loseLocked(i, fmt.Sprintf("dist: cell lost: campaign stalled with no worker activity for %s", st))
			}
		}
	}
}

// loseLocked completes cell i with a synthetic failure segment.
func (c *Coordinator) loseLocked(i int, msg string) {
	c.lost++
	c.acceptLocked(sched.Segment{Key: c.spec.Cells[i].Key, Err: msg})
}

func (c *Coordinator) workerLocked(id string) *workerState {
	ws := c.workers[id]
	if ws == nil {
		ws = &workerState{breaker: sched.NewBreaker(c.opts.Breaker)}
		c.workers[id] = ws
	}
	return ws
}

func (c *Coordinator) completeLocked() bool {
	return len(c.segs) == len(c.spec.Cells)
}

// finishLocked wakes waiters after any state change.
func (c *Coordinator) finishLocked() {
	c.cond.Broadcast()
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Status returns a progress snapshot. It walks every resolved segment,
// so the campaign's progress stream calls it once a tick and no RPC
// pays for it.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Name:         c.name,
		Total:        len(c.spec.Cells),
		Done:         len(c.segs),
		Duplicates:   c.duplicates,
		Reissues:     c.reissues,
		Lost:         c.lost,
		ActiveLeases: len(c.leases),
		Workers:      len(c.workers),
		Stalled:      c.stalled,
		Complete:     c.completeLocked(),
	}
	for _, seg := range c.segs {
		if seg.Replayed {
			st.Replayed++
		}
		if seg.CacheHit {
			st.CacheHits++
		}
	}
	for _, ws := range c.workers {
		if ws.breaker.Open() {
			st.Quarantined++
		}
	}
	return st
}

// Segments returns a copy of the resolved-segment map; once Wait has
// returned nil the copy is complete and ready for
// sched.AssembleReport.
func (c *Coordinator) Segments() map[string]sched.Segment {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]sched.Segment, len(c.segs))
	for k, v := range c.segs {
		out[k] = v
	}
	return out
}

// Wait blocks until every cell is resolved (delivered, replayed, or
// marked lost) or ctx is cancelled. A periodic sweep runs while
// waiting so lease expiry and the stall bound do not depend on RPC
// traffic arriving.
func (c *Coordinator) Wait(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	tick := c.opts.leaseTTL() / 4
	if tick > time.Second {
		tick = time.Second
	}
	if tick <= 0 {
		tick = 100 * time.Millisecond
	}
	sweepDone := make(chan struct{})
	defer close(sweepDone)
	go func() {
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-sweepDone:
				return
			case <-t.C:
				c.Sweep()
			}
		}
	}()
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.completeLocked() {
		if err := ctx.Err(); err != nil {
			return err
		}
		c.cond.Wait()
	}
	return nil
}
