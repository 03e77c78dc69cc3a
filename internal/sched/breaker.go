package sched

import "sort"

// BreakerOptions configures the fleet's per-device circuit breaker.
// After Threshold consecutive cell failures on one device, the device
// is quarantined: its next Cooldown cells are skipped (recorded as
// ErrQuarantined, never executed when the skip can be decided in time),
// then one probation cell runs — success closes the breaker, failure
// re-opens it for another cooldown. The campaign keeps running on the
// surviving fleet either way.
//
// Breaker decisions are evaluated in spec order per device, as a pure
// function of per-cell outcomes — which are themselves deterministic
// under the scheduler's seed-splitting — so the final report is
// byte-identical at any worker count. Under high parallelism a cell may
// execute speculatively before its quarantine verdict is known; its
// result is then discarded and replaced by ErrQuarantined, keeping the
// report identical to a serial run that skipped it outright.
type BreakerOptions struct {
	// Threshold is the consecutive-failure count that opens a device's
	// breaker. Values < 1 mean 3.
	Threshold int
	// Cooldown is how many subsequent cells on the device are
	// quarantined before a probation cell is let through. Values < 1
	// mean 2.
	Cooldown int
}

func (b BreakerOptions) threshold() int {
	if b.Threshold < 1 {
		return 3
	}
	return b.Threshold
}

func (b BreakerOptions) cooldown() int {
	if b.Cooldown < 1 {
		return 2
	}
	return b.Cooldown
}

// DeviceHealth summarizes one device's campaign health; Report.Health
// carries one entry per device when the breaker is enabled. All counts
// are derived from the deterministic post-pass, so they are identical
// at any worker count.
type DeviceHealth struct {
	// Device is the device's short name.
	Device string
	// Cells is the number of campaign cells on the device.
	Cells int
	// Failed counts cells whose own outcome was a permanent failure
	// (quarantined cells are not double-counted here).
	Failed int
	// Quarantined counts cells skipped by the breaker.
	Quarantined int
	// Retries counts extra attempts across the device's surviving cells.
	Retries int
	// Open reports whether the breaker was still open when the campaign
	// ended — the device finished in quarantine.
	Open bool
}

// breakerWalk is the breaker state machine. It consumes one device's
// cells in spec order; quarantine() reports the verdict for the next
// position, and the walk advances via skip() (position quarantined) or
// outcome() (position executed, with its success bit).
type breakerWalk struct {
	opts     BreakerOptions
	streak   int
	coolLeft int
}

// quarantine reports whether the next position must be skipped.
func (w *breakerWalk) quarantine() bool { return w.coolLeft > 0 }

// skip consumes one quarantined position.
func (w *breakerWalk) skip() {
	w.coolLeft--
	if w.coolLeft == 0 {
		// Cooldown served: the next cell is probation. One failure
		// re-opens the breaker, one success closes it.
		w.streak = w.opts.threshold() - 1
	}
}

// outcome consumes one executed position.
func (w *breakerWalk) outcome(ok bool) {
	if ok {
		w.streak = 0
		return
	}
	w.streak++
	if w.streak >= w.opts.threshold() {
		w.coolLeft = w.opts.cooldown()
	}
}

// stepRecord advances the walk over one resolved record and reports
// whether the walk quarantines the record's position. An interrupted
// record never resolved, so it consumes nothing — exactly how a resumed
// run, which re-executes it, walks this position. At a quarantined
// position any recorded outcome is ignored: a speculative execution's
// result does not feed the streak.
func stepRecord[R any](w *breakerWalk, r *CellResult[R]) bool {
	switch {
	case r.Interrupted:
		return false
	case w.quarantine():
		w.skip()
		return true
	}
	w.outcome(r.Err == nil)
	return false
}

// Breaker is the breaker state machine as a standalone component, for
// callers that quarantine something other than a device cell stream —
// the distributed coordinator applies one per worker, so a worker whose
// leases repeatedly expire or fail is starved of new ranges the same
// way a failing device is starved of cells. Allow consumes one cooldown
// slot when the breaker is open (mirroring how a quarantined device
// skips cells), so after Cooldown refusals the next Allow is probation:
// its Observe verdict closes or re-opens the breaker. A Breaker is not
// safe for concurrent use; the coordinator calls it under its own lock.
type Breaker struct {
	walk breakerWalk
}

// NewBreaker returns a closed breaker with the options' thresholds.
func NewBreaker(opts BreakerOptions) *Breaker {
	return &Breaker{walk: breakerWalk{opts: opts}}
}

// Allow reports whether the next unit of work may proceed; a refusal
// consumes one cooldown slot.
func (b *Breaker) Allow() bool {
	if b.walk.quarantine() {
		b.walk.skip()
		return false
	}
	return true
}

// Observe records the outcome of a unit of work that was allowed.
func (b *Breaker) Observe(ok bool) { b.walk.outcome(ok) }

// Open reports whether the breaker is currently refusing work.
func (b *Breaker) Open() bool { return b.walk.quarantine() }

// deviceIndex lists each device's spec indexes in spec order. Cells
// without a device label are outside the breaker's jurisdiction.
func deviceIndex(cells []Cell) map[string][]int {
	byDev := map[string][]int{}
	for i, c := range cells {
		if c.Device != "" {
			byDev[c.Device] = append(byDev[c.Device], i)
		}
	}
	return byDev
}

// liveBreaker lets a running campaign's workers skip quarantined cells
// without executing them when the verdict is already decidable. It
// keeps no outcomes of its own: each device's cursor walks the
// campaign's records in spec order over the prefix that has resolved,
// so a live decision reads the same records the post-pass settles.
// Callers hold the campaign's lock, under which every record is
// written.
type liveBreaker[R any] struct {
	results []CellResult[R]
	dev     map[string]*deviceCursor
}

// deviceCursor is one device's resolved-prefix walk: the records of
// cells[:next] have been consumed into walk.
type deviceCursor struct {
	cells []int
	next  int
	walk  breakerWalk
}

func newLiveBreaker[R any](results []CellResult[R], cells []Cell, opts BreakerOptions) *liveBreaker[R] {
	b := &liveBreaker[R]{results: results, dev: map[string]*deviceCursor{}}
	for dev, idx := range deviceIndex(cells) {
		b.dev[dev] = &deviceCursor{cells: idx, walk: breakerWalk{opts: opts}}
	}
	return b
}

// skip reports whether pending cell i must be quarantined before it
// executes: every earlier cell on its device has resolved and the walk
// over their records quarantines i's position. Otherwise the cell
// executes speculatively and the post-pass settles its record.
func (b *liveBreaker[R]) skip(cell Cell, i int) bool {
	if b == nil || cell.Device == "" {
		return false
	}
	d := b.dev[cell.Device]
	for ; d.cells[d.next] != i; d.next++ {
		r := &b.results[d.cells[d.next]]
		if r.pending() {
			return false
		}
		stepRecord(&d.walk, r)
	}
	return d.walk.quarantine()
}

// applyBreaker settles the report: every device's records are walked
// in spec order, records at positions the machine quarantines have
// their (possibly speculative) results replaced by ErrQuarantined, and
// per-device health is summarized. The pass is a pure function of
// per-cell outcomes, so its verdicts — and therefore the whole report —
// are worker-count-independent. The caller tallies the settled records.
func applyBreaker[R any](rep *Report[R], opts BreakerOptions) {
	byDev := deviceIndex(rep.Spec.Cells)
	devices := make([]string, 0, len(byDev))
	for d := range byDev {
		devices = append(devices, d)
	}
	sort.Strings(devices)
	rep.Health = rep.Health[:0]
	for _, dev := range devices {
		h := DeviceHealth{Device: dev, Cells: len(byDev[dev])}
		w := breakerWalk{opts: opts}
		for _, i := range byDev[dev] {
			r := &rep.Results[i]
			if stepRecord(&w, r) {
				// A speculative execution, cache hit or checkpoint replay
				// is discarded whole, so a quarantined record is the same
				// however its position was reached.
				*r = CellResult[R]{Cell: r.Cell, Err: ErrQuarantined, Quarantined: true}
				h.Quarantined++
				continue
			}
			if r.Interrupted {
				continue
			}
			if r.Err != nil {
				h.Failed++
			}
			if r.Attempts > 1 {
				h.Retries += r.Attempts - 1
			}
		}
		h.Open = w.quarantine()
		rep.Health = append(rep.Health, h)
	}
}
