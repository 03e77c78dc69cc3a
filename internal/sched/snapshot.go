package sched

import (
	"sync"
	"time"

	"repro/internal/clock"
)

// progressTracker accumulates live counters and drives the OnProgress
// callback: a ticker goroutine emits periodic snapshots, and finish
// (called after the campaign settles) joins the ticker and emits the
// final one. All callback invocations are serialized — the ticker
// goroutine is joined before the final emit — so OnProgress needs no
// locking of its own and the Final snapshot is always the last
// delivered.
type progressTracker struct {
	mu    sync.Mutex
	cb    func(Progress)
	start time.Time
	clk   clock.Clock
	// live holds the running counters and per-device busy seconds;
	// snapshot stamps elapsed time and rates onto a copy.
	live Progress

	stopTick func()        // cancels the ticker goroutine; nil when none
	tickDone chan struct{} // closed when the ticker goroutine exits
}

// newProgressTracker starts the tracker and, with a positive interval,
// its ticker goroutine.
func newProgressTracker(cb func(Progress), campaign string, total int, every time.Duration) *progressTracker {
	t := &progressTracker{
		cb:   cb,
		clk:  clock.System{},
		live: Progress{Campaign: campaign, Total: total, DeviceBusy: map[string]float64{}},
	}
	t.start = t.clk.Now()
	if every > 0 {
		stop := make(chan struct{})
		t.stopTick = sync.OnceFunc(func() { close(stop) })
		t.tickDone = make(chan struct{})
		go t.tick(every, stop)
	}
	return t
}

// tick emits a snapshot every interval until stopped.
func (t *progressTracker) tick(every time.Duration, stop chan struct{}) {
	defer close(t.tickDone)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			t.cb(t.snapshot())
		}
	}
}

// stop joins the ticker goroutine. It is idempotent and safe when no
// ticker was started.
func (t *progressTracker) stop() {
	if t.stopTick != nil {
		t.stopTick()
		<-t.tickDone
	}
}

// snapshot assembles a cumulative Progress from the live counters.
func (t *progressTracker) snapshot() Progress {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.live
	p.DeviceBusy = nil
	if len(t.live.DeviceBusy) > 0 {
		p.DeviceBusy = make(map[string]float64, len(t.live.DeviceBusy))
		for d, busy := range t.live.DeviceBusy {
			p.DeviceBusy[d] = busy
		}
	}
	p.setElapsed(t.clk.Now().Sub(t.start).Seconds())
	return p
}

func (t *progressTracker) cellReplayed() {
	t.mu.Lock()
	t.live.Replayed++
	t.live.Done++
	t.mu.Unlock()
}

func (t *progressTracker) cellQuarantined() {
	t.mu.Lock()
	t.live.Quarantined++
	t.live.Done++
	t.mu.Unlock()
}

// cellInterrupted records a cell abandoned by cancellation: pending,
// not done.
func (t *progressTracker) cellInterrupted() {
	t.mu.Lock()
	t.live.Interrupted++
	t.mu.Unlock()
}

// cellCacheHit records a cell served from the result cache: it counts
// toward Done without counting as executed.
func (t *progressTracker) cellCacheHit() {
	t.mu.Lock()
	t.live.CacheHits++
	t.live.Done++
	t.mu.Unlock()
}

// cellCacheMiss records a consultation that found nothing servable;
// corrupt marks the subset where an entry existed but failed
// verification. The cell goes on to execute either way.
func (t *progressTracker) cellCacheMiss(corrupt bool) {
	t.mu.Lock()
	if corrupt {
		t.live.CacheCorrupt++
	} else {
		t.live.CacheMisses++
	}
	t.mu.Unlock()
}

func (t *progressTracker) cellDone(c Cell, wall time.Duration, instances int, ok bool, retries int) {
	t.mu.Lock()
	t.live.Executed++
	t.live.Done++
	t.live.Instances += instances
	t.live.Retried += retries
	if !ok {
		t.live.Failed++
	}
	if c.Device != "" {
		t.live.DeviceBusy[c.Device] += wall.Seconds()
	}
	t.mu.Unlock()
}

// finish joins the ticker goroutine and emits the final snapshot: p is
// the settled snapshot FinalProgress builds from the report, completed
// here with the live instance count, busy times and elapsed time. It
// runs after applyBreaker, so under a circuit breaker the Final
// counters are the authoritative post-pass ones. Done stays monotonic:
// every cell is by now executed, replayed, quarantined, interrupted or
// aborted, and Done counts exactly the first three — the same
// population the live counter grew over.
func (t *progressTracker) finish(p Progress) {
	t.stop()
	live := t.snapshot()
	p.Instances = live.Instances
	p.setElapsed(live.ElapsedSeconds)
	p.DeviceBusy = live.DeviceBusy
	t.cb(p)
}
