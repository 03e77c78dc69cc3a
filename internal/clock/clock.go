// Package clock is the one time seam of the infrastructure: how a
// component reads the time, how it waits, and how it spaces retries.
//
// Campaign artifacts are a pure function of (spec, seed); host time
// and retry timing never enter them. So every timestamp, timeout check
// and retry wait outside the simulator goes through a Clock, and tests
// substitute Fake to run backoff, lease and watchdog paths in
// microseconds without a wall-clock sleep.
package clock

import (
	"context"
	"sync"
	"time"
)

// Clock reads and waits on time.
type Clock interface {
	Now() time.Time
	// Sleep waits for d, or until ctx ends, in which case it returns
	// ctx.Err(). A non-positive d returns ctx.Err() at once.
	Sleep(ctx context.Context, d time.Duration) error
}

// System is the real clock.
type System struct{}

// Now returns time.Now.
func (System) Now() time.Time { return time.Now() }

// Sleep waits on a timer, returning early when ctx ends.
func (System) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Fake is a manually advanced clock for deterministic tests. Sleep
// never blocks: it advances the fake time by d.
type Fake struct {
	mu sync.Mutex
	t  time.Time
}

// NewFake starts a fake clock at the given instant.
func NewFake(start time.Time) *Fake { return &Fake{t: start} }

// Now returns the current fake instant.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

// Sleep advances the fake time by d and returns ctx.Err().
func (f *Fake) Sleep(ctx context.Context, d time.Duration) error {
	f.Advance(d)
	return ctx.Err()
}

// Advance moves the fake time forward by d.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// Backoff is the wait before retry number attempt (0-based): the base
// doubled per attempt (saturating at 2^32), capped at cap when cap > 0
// and on overflow, then jittered over [d/2, d] by u in [0, 1). The
// jitter desynchronizes a fleet retrying against one recovering peer
// without collapsing any wait to zero. A non-positive base means no
// wait.
func Backoff(base, cap time.Duration, attempt int, u float64) time.Duration {
	if base <= 0 {
		return 0
	}
	shift := uint(min(max(attempt, 0), 32))
	d := base << shift
	if d>>shift != base {
		d = 1<<63 - 1 // overflowed: saturate
	}
	if cap > 0 && d > cap {
		d = cap
	}
	return d/2 + time.Duration(u*float64(d/2))
}
