package sched

// Cancellation and drain tests: campaign-context cancellation between
// and during cells, deadline budgets, per-cell timeouts, interruptible
// retry waits, resume byte-identity after an interrupt, and the
// reporter heartbeat's goroutine hygiene.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrand"
)

// TestCancelBetweenCells: cancelling the campaign context after some
// cells completed abandons the rest without running them. Completed
// cells keep their values; abandoned ones are marked Interrupted and
// the error wraps ErrInterrupted.
func TestCancelBetweenCells(t *testing.T) {
	spec := testSpec(10)
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	rep, err := RunContext(ctx, spec, func(_ context.Context, c Cell, rng *xrand.Rand) (uint64, error) {
		ran++
		if ran == 4 {
			cancel()
		}
		return rng.Uint64(), nil
	}, Options[uint64]{Workers: 1})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("error does not wrap ErrInterrupted: %v", err)
	}
	if ran != 4 {
		t.Fatalf("%d cells ran after cancellation, want 4", ran)
	}
	if rep.Interrupted != 6 || rep.Executed != 4 || rep.Failed != 0 {
		t.Fatalf("counters: interrupted=%d executed=%d failed=%d", rep.Interrupted, rep.Executed, rep.Failed)
	}
	for i, r := range rep.Results {
		if i < 4 {
			if r.Interrupted || r.Err != nil {
				t.Fatalf("completed cell %d marked interrupted: %+v", i, r)
			}
			continue
		}
		if !r.Interrupted || !errors.Is(r.Err, ErrInterrupted) {
			t.Fatalf("abandoned cell %d not marked interrupted: %+v", i, r)
		}
	}
}

// TestCancelMidCell: a cell in flight when the campaign context dies is
// abandoned — its exec's context error surfaces as an interruption, not
// a permanent cell failure.
func TestCancelMidCell(t *testing.T) {
	spec := testSpec(3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := RunContext(ctx, spec, func(ctx context.Context, c Cell, _ *xrand.Rand) (int, error) {
		if c.Key == "cell-001" {
			cancel()
			<-ctx.Done()
			return 0, fmt.Errorf("exec observed shutdown: %w", ctx.Err())
		}
		return 1, nil
	}, Options[int]{Workers: 1})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("error does not wrap ErrInterrupted: %v", err)
	}
	r := rep.Results[1]
	if !r.Interrupted || r.Attempts != 1 {
		t.Fatalf("mid-flight cell: %+v", r)
	}
	// The cancellation drained the rest too.
	if !rep.Results[2].Interrupted {
		t.Fatalf("queued cell not abandoned: %+v", rep.Results[2])
	}
	if rep.Failed != 0 {
		t.Fatalf("interrupted cells counted as failures: %d", rep.Failed)
	}
}

// TestDeadlineDrains: a context deadline expiring mid-campaign follows
// the same drain path as an explicit cancel.
func TestDeadlineDrains(t *testing.T) {
	spec := testSpec(8)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	rep, err := RunContext(ctx, spec, func(ctx context.Context, c Cell, _ *xrand.Rand) (int, error) {
		if c.Key == "cell-002" {
			<-ctx.Done() // simulate a long cell outliving the budget
		}
		return 1, nil
	}, Options[int]{Workers: 1})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("deadline expiry did not interrupt: %v", err)
	}
	if rep.Interrupted == 0 {
		t.Fatal("no cells recorded interrupted")
	}
	if rep.Results[0].Err != nil || rep.Results[1].Err != nil {
		t.Fatal("cells completed before the deadline were not kept")
	}
}

// TestPreCancelledContext: a context dead on arrival abandons every
// cell without executing any.
func TestPreCancelledContext(t *testing.T) {
	spec := testSpec(5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	rep, err := RunContext(ctx, spec, func(context.Context, Cell, *xrand.Rand) (int, error) {
		ran.Add(1)
		return 1, nil
	}, Options[int]{Workers: 2})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("error does not wrap ErrInterrupted: %v", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d cells ran under a dead context", ran.Load())
	}
	if rep.Interrupted != 5 {
		t.Fatalf("Interrupted = %d, want 5", rep.Interrupted)
	}
}

// TestCellTimeoutIsOrdinaryFailure: a cell overrunning CellTimeout
// fails that cell only — the campaign context stays alive, later cells
// run, and nothing is marked interrupted.
func TestCellTimeoutIsOrdinaryFailure(t *testing.T) {
	spec := testSpec(4)
	rep, err := RunContext(context.Background(), spec, func(ctx context.Context, c Cell, _ *xrand.Rand) (int, error) {
		if c.Key == "cell-001" {
			<-ctx.Done() // hang until the cell deadline fires
			return 0, fmt.Errorf("cell overran its budget: %w", ctx.Err())
		}
		return 1, nil
	}, Options[int]{Workers: 1, CellTimeout: 20 * time.Millisecond, Collect: true})
	if err != nil {
		t.Fatalf("cell timeout escalated to campaign error: %v", err)
	}
	if rep.Interrupted != 0 {
		t.Fatalf("cell timeout marked cells interrupted: %d", rep.Interrupted)
	}
	if rep.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", rep.Failed)
	}
	if r := rep.Results[1]; r.Err == nil || !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("timed-out cell error: %v", r.Err)
	}
	for _, i := range []int{0, 2, 3} {
		if rep.Results[i].Err != nil {
			t.Fatalf("cell %d did not survive a sibling's timeout: %v", i, rep.Results[i].Err)
		}
	}
}

// TestBackoffWaitInterruptible: a cancellation arriving during a retry
// backoff wait abandons the cell immediately instead of finishing the
// wait and re-attempting.
func TestBackoffWaitInterruptible(t *testing.T) {
	spec := testSpec(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	attempts := 0
	start := time.Now()
	rep, err := RunContext(ctx, spec, func(context.Context, Cell, *xrand.Rand) (int, error) {
		attempts++
		return 0, Transient(fmt.Errorf("busy"))
	}, Options[int]{
		MaxRetries: 5,
		Backoff:    time.Hour, // the test would hang if the wait were not interruptible
		Sleep: func(time.Duration) {
			cancel() // cancellation lands mid-wait
		},
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("error does not wrap ErrInterrupted: %v", err)
	}
	if attempts != 1 {
		t.Fatalf("cell re-attempted after cancellation: %d attempts", attempts)
	}
	if rep.Results[0].Attempts != 1 || !rep.Results[0].Interrupted {
		t.Fatalf("cell record: %+v", rep.Results[0])
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("backoff wall-clocked %v", elapsed)
	}
}

// TestInterruptResumeByteIdentical is the determinism contract of the
// drain: cancel a checkpointed campaign mid-way, resume it, and the
// final values are byte-identical to a never-interrupted run — the
// abandoned cells re-ran from their per-cell streams.
func TestInterruptResumeByteIdentical(t *testing.T) {
	spec := testSpec(16)
	clean, err := Run(spec, drawValue, Options[cellValue]{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "interrupt.ckpt")
	ck, err := OpenCheckpoint(path, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	rep, err := RunContext(ctx, spec, func(ctx context.Context, c Cell, rng *xrand.Rand) (cellValue, error) {
		ran++
		if ran == 7 {
			cancel()
		}
		return drawValue(ctx, c, rng)
	}, Options[cellValue]{Workers: 1, Checkpoint: ck})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run error: %v", err)
	}
	ck.Close()
	if rep.Interrupted == 0 {
		t.Fatal("test vacuous: nothing was interrupted")
	}

	// Only fully-completed cells may be in the checkpoint.
	ck2, err := OpenCheckpoint(path, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if got := ck2.Completed(); got != rep.Executed {
		t.Fatalf("checkpoint holds %d cells, executed %d", got, rep.Executed)
	}
	for _, r := range rep.Results {
		if _, done := ck2.Done(r.Cell.Key); done && r.Interrupted {
			t.Fatalf("interrupted cell %s leaked into the checkpoint", r.Cell.Key)
		}
	}

	resumed, err := Run(spec, drawValue, Options[cellValue]{Workers: 4, Checkpoint: ck2})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Replayed != rep.Executed {
		t.Fatalf("resume replayed %d cells, want %d", resumed.Replayed, rep.Executed)
	}
	got, want := resumed.Values(), clean.Values()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("cell %d: resumed %+v != clean %+v", i, got[i], want[i])
		}
	}
}

// TestReporterHeartbeatStopsOnInterrupt: the OnProgress ticker
// goroutine is joined on a drain — RunContext must not leak it,
// interrupted or not.
func TestReporterHeartbeatStopsOnInterrupt(t *testing.T) {
	spec := testSpec(6)
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		ran := 0
		_, err := RunContext(ctx, spec, func(_ context.Context, c Cell, _ *xrand.Rand) (int, error) {
			ran++
			if ran == 2 {
				cancel()
			}
			time.Sleep(2 * time.Millisecond) // let the ticker actually tick
			return 1, nil
		}, Options[int]{Workers: 1, OnProgress: func(Progress) {}, ProgressEvery: time.Millisecond})
		cancel()
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// The ticker goroutine is joined before finish() returns, so any
	// residue here is a real leak; allow scheduler noise to settle.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after interrupted campaigns", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestInterruptedReporterLine: the final progress line names the
// interrupted count and ends with "interrupted", not "done".
func TestInterruptedReporterLine(t *testing.T) {
	spec := testSpec(6)
	var lines []string
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	_, err := RunContext(ctx, spec, func(_ context.Context, c Cell, _ *xrand.Rand) (int, error) {
		ran++
		if ran == 2 {
			cancel()
		}
		return 1, nil
	}, Options[int]{Workers: 1, OnProgress: func(p Progress) { lines = append(lines, p.String()) }})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no progress line emitted")
	}
	last := lines[len(lines)-1]
	for _, want := range []string{"4 interrupted", "interrupted"} {
		if !strings.Contains(last, want) {
			t.Errorf("final line missing %q: %s", want, last)
		}
	}
	if strings.HasSuffix(last, " done") {
		t.Errorf("interrupted campaign reported done: %s", last)
	}
}

// TestInterruptedSkipsBreakerWalk: interrupted cells neither feed a
// device's failure streak nor consume cooldown slots, so the breaker
// state a resumed run derives matches what this run recorded.
func TestInterruptedSkipsBreakerWalk(t *testing.T) {
	spec := testSpec(12)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	rep, err := RunContext(ctx, spec, func(_ context.Context, c Cell, _ *xrand.Rand) (int, error) {
		ran++
		if ran == 5 {
			cancel()
		}
		if c.Device == "AMD" {
			return 0, fmt.Errorf("amd is down")
		}
		return 1, nil
	}, Options[int]{Workers: 1, Breaker: &BreakerOptions{Threshold: 3, Cooldown: 2}})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("error does not wrap ErrInterrupted: %v", err)
	}
	for _, r := range rep.Results {
		if r.Interrupted && r.Quarantined {
			t.Fatalf("cell %s both interrupted and quarantined", r.Cell.Key)
		}
	}
	for _, h := range rep.Health {
		if h.Device != "AMD" {
			continue
		}
		// Ran cells: AMD at spec positions 0,2,4 → up to 3 failures; the
		// interrupted tail must not extend the walk.
		if h.Failed > 3 {
			t.Fatalf("interrupted cells fed the failure streak: %+v", h)
		}
	}
}
