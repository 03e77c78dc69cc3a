package guard

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
)

// Watchdog supervises running jobs against their wall-deadline and
// stall budgets. It is fed two streams: Observe with a monotone
// progress mark (the sum of a job's cumulative Progress counters — the
// mark moves exactly when a cell resolves, so a wedged device, a
// livelocked retry loop and a stuck distributed coordinator all look
// the same: a frozen mark), and Sweep, which checks every watched job
// against the injected clock and fires the expiry callback for each
// violation. Both enforcement decisions live in Sweep, so a fake clock
// plus a manual Sweep reproduces every transition deterministically.
type Watchdog struct {
	clock clock.Clock
	// onExpire is called outside the watchdog lock, once per job —
	// an expired job is forgotten before its callback fires.
	onExpire func(id string, cause error)

	mu   sync.Mutex
	jobs map[string]*watch
}

type watch struct {
	start       time.Time
	wall, stall time.Duration
	mark        uint64
	lastAdvance time.Time
}

// NewWatchdog builds a watchdog on the given clock. onExpire receives
// the job ID and a cause wrapping ErrDeadlineExceeded or ErrStalled.
func NewWatchdog(clk clock.Clock, onExpire func(id string, cause error)) *Watchdog {
	if clk == nil {
		clk = clock.System{}
	}
	return &Watchdog{clock: clk, onExpire: onExpire, jobs: map[string]*watch{}}
}

// Watch begins supervising a job. A zero wall or stall budget disables
// that check; with both zero the call is a no-op.
func (w *Watchdog) Watch(id string, wall, stall time.Duration) {
	if wall <= 0 && stall <= 0 {
		return
	}
	now := w.clock.Now()
	w.mu.Lock()
	w.jobs[id] = &watch{start: now, wall: wall, stall: stall, lastAdvance: now}
	w.mu.Unlock()
}

// Observe feeds a job's current progress mark. The stall clock resets
// only when the mark moves — periodic snapshots with frozen counters
// do not count as progress.
func (w *Watchdog) Observe(id string, mark uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	j, ok := w.jobs[id]
	if !ok || mark == j.mark {
		return
	}
	j.mark = mark
	j.lastAdvance = w.clock.Now()
}

// Forget stops supervising a job (it finished or was cancelled).
func (w *Watchdog) Forget(id string) {
	w.mu.Lock()
	delete(w.jobs, id)
	w.mu.Unlock()
}

// Watched reports how many jobs are currently supervised.
func (w *Watchdog) Watched() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.jobs)
}

// Sweep checks every watched job against the clock and fires onExpire
// for each violation, returning the number fired. The deadline check
// wins when both budgets are violated at once. Expired jobs are
// removed before their callbacks run, so a violation fires exactly
// once and the callbacks run without the watchdog lock held.
func (w *Watchdog) Sweep() int {
	now := w.clock.Now()
	type firing struct {
		id    string
		cause error
	}
	var fired []firing
	w.mu.Lock()
	for id, j := range w.jobs {
		switch {
		case j.wall > 0 && now.Sub(j.start) > j.wall:
			fired = append(fired, firing{id, fmt.Errorf("%w (ran %s, budget %s)",
				ErrDeadlineExceeded, now.Sub(j.start).Round(time.Millisecond), j.wall)})
		case j.stall > 0 && now.Sub(j.lastAdvance) > j.stall:
			fired = append(fired, firing{id, fmt.Errorf("%w (no progress for %s, budget %s)",
				ErrStalled, now.Sub(j.lastAdvance).Round(time.Millisecond), j.stall)})
		default:
			continue
		}
		delete(w.jobs, id)
	}
	w.mu.Unlock()
	for _, f := range fired {
		if w.onExpire != nil {
			w.onExpire(f.id, f.cause)
		}
	}
	return len(fired)
}
