package guard

import (
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
)

func fakeClock() *clock.Fake {
	return clock.NewFake(time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC))
}

// TestWatchdogStall: a frozen progress mark expires after the stall
// budget; a moving mark resets the stall clock. All transitions are
// driven by the fake clock and manual sweeps.
func TestWatchdogStall(t *testing.T) {
	clk := fakeClock()
	var fired []string
	var causes []error
	w := NewWatchdog(clk, func(id string, cause error) {
		fired = append(fired, id)
		causes = append(causes, cause)
	})
	w.Watch("j1", 0, 10*time.Second)

	clk.Advance(9 * time.Second)
	if n := w.Sweep(); n != 0 {
		t.Fatalf("swept %d inside the budget", n)
	}
	// Progress arrives: the stall clock resets.
	w.Observe("j1", 1)
	clk.Advance(9 * time.Second)
	if n := w.Sweep(); n != 0 {
		t.Fatalf("swept %d after progress reset", n)
	}
	// A snapshot with an unchanged mark is not progress.
	w.Observe("j1", 1)
	clk.Advance(2 * time.Second)
	if n := w.Sweep(); n != 1 {
		t.Fatalf("stall did not fire: swept %d", n)
	}
	if len(fired) != 1 || fired[0] != "j1" {
		t.Fatalf("fired %v", fired)
	}
	if !errors.Is(causes[0], ErrStalled) {
		t.Fatalf("cause = %v, want ErrStalled", causes[0])
	}
	// Expired jobs are forgotten: no double fire.
	clk.Advance(time.Hour)
	if n := w.Sweep(); n != 0 {
		t.Fatalf("expired job fired again: %d", n)
	}
	if w.Watched() != 0 {
		t.Fatalf("watched = %d after expiry", w.Watched())
	}
}

// TestWatchdogDeadline: the wall budget expires regardless of
// progress, and wins over a simultaneous stall violation.
func TestWatchdogDeadline(t *testing.T) {
	clk := fakeClock()
	var cause error
	w := NewWatchdog(clk, func(id string, c error) { cause = c })
	w.Watch("j1", time.Minute, 10*time.Second)

	// Keep progress flowing so only the deadline can fire.
	for i := 0; i < 13; i++ {
		clk.Advance(5 * time.Second)
		w.Observe("j1", uint64(i+1))
		w.Sweep()
	}
	if cause == nil {
		t.Fatal("deadline did not fire")
	}
	if !errors.Is(cause, ErrDeadlineExceeded) {
		t.Fatalf("cause = %v, want ErrDeadlineExceeded", cause)
	}

	// Both violated at once: deadline wins.
	cause = nil
	w.Watch("j2", time.Minute, 10*time.Second)
	clk.Advance(2 * time.Hour)
	w.Sweep()
	if !errors.Is(cause, ErrDeadlineExceeded) {
		t.Fatalf("cause = %v, want ErrDeadlineExceeded", cause)
	}
}

// TestWatchdogForgetAndZeroBudgets: forgotten jobs never fire, and a
// watch with no budgets is a no-op.
func TestWatchdogForgetAndZeroBudgets(t *testing.T) {
	clk := fakeClock()
	fired := 0
	w := NewWatchdog(clk, func(string, error) { fired++ })
	w.Watch("gone", time.Second, time.Second)
	w.Forget("gone")
	w.Watch("unbudgeted", 0, 0)
	if w.Watched() != 0 {
		t.Fatalf("watched = %d, want 0", w.Watched())
	}
	clk.Advance(time.Hour)
	if w.Sweep() != 0 || fired != 0 {
		t.Fatalf("fired %d times for forgotten/unbudgeted jobs", fired)
	}
}

// TestMemWatcherTransitions scripts a pressure trajectory through
// every level and checks the transition callbacks.
func TestMemWatcherTransitions(t *testing.T) {
	heap := uint64(10)
	type change struct {
		from, to Level
	}
	var changes []change
	m := NewMemWatcher(100, 200, func() uint64 { return heap },
		func(from, to Level, _ uint64) { changes = append(changes, change{from, to}) })

	if lv := m.Sample(); lv != LevelOK {
		t.Fatalf("level = %v at heap 10", lv)
	}
	heap = 150
	if lv := m.Sample(); lv != LevelSoft {
		t.Fatalf("level = %v at heap 150", lv)
	}
	heap = 250
	if lv := m.Sample(); lv != LevelHard {
		t.Fatalf("level = %v at heap 250", lv)
	}
	heap = 250 // steady state: no new transition
	m.Sample()
	heap = 50
	if lv := m.Sample(); lv != LevelOK {
		t.Fatalf("level = %v at heap 50", lv)
	}
	want := []change{{LevelOK, LevelSoft}, {LevelSoft, LevelHard}, {LevelHard, LevelOK}}
	if len(changes) != len(want) {
		t.Fatalf("changes = %v, want %v", changes, want)
	}
	for i := range want {
		if changes[i] != want[i] {
			t.Fatalf("change %d = %v, want %v", i, changes[i], want[i])
		}
	}
	if lv, h := m.Snapshot(); lv != LevelOK || h != 50 {
		t.Fatalf("snapshot = %v/%d", lv, h)
	}
}

// TestMemWatcherDefaults: soft inherits hard when unset; disabled
// watchers always report OK.
func TestMemWatcherDefaults(t *testing.T) {
	m := NewMemWatcher(0, 100, func() uint64 { return 100 }, nil)
	if lv := m.Sample(); lv != LevelHard {
		t.Fatalf("hard-only watcher at the hard mark: %v", lv)
	}
	var disabled *MemWatcher
	if lv := disabled.Sample(); lv != LevelOK {
		t.Fatalf("nil watcher level = %v", lv)
	}
	off := NewMemWatcher(0, 0, func() uint64 { panic("read") }, nil)
	if lv := off.Sample(); lv != LevelOK {
		t.Fatalf("disabled watcher level = %v", lv)
	}
}

// TestLimits covers admission validation and default resolution.
func TestLimits(t *testing.T) {
	l := Limits{
		DefaultWallDeadline: time.Hour,
		MaxWallDeadline:     2 * time.Hour,
		DefaultStallTimeout: time.Minute,
		MaxCellTimeout:      time.Minute,
	}
	if err := l.Validate(Budget{WallDeadline: 90 * time.Minute}); err != nil {
		t.Fatalf("in-cap budget rejected: %v", err)
	}
	if err := l.Validate(Budget{WallDeadline: 3 * time.Hour}); err == nil {
		t.Fatal("over-cap wall deadline accepted")
	}
	if err := l.Validate(Budget{CellTimeout: -time.Second}); err == nil {
		t.Fatal("negative cell timeout accepted")
	}
	if err := l.Validate(Budget{StallTimeout: 24 * time.Hour}); err != nil {
		t.Fatalf("uncapped field rejected: %v", err)
	}
	eff := l.Resolve(Budget{CellTimeout: time.Second})
	if eff.WallDeadline != time.Hour || eff.StallTimeout != time.Minute || eff.CellTimeout != time.Second {
		t.Fatalf("resolved = %+v", eff)
	}
}
