package sched

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrand"
)

// collectProgress runs the campaign with an OnProgress hook that
// appends every snapshot. The slice needs no locking: the tracker
// serializes callback invocations (ticker goroutine joined before the
// final emit), which is itself part of the contract under test — the
// race detector enforces it.
func collectProgress[R any](t *testing.T, ctx context.Context, spec Spec, exec Exec[R], opts Options[R]) ([]Progress, *Report[R], error) {
	t.Helper()
	var snaps []Progress
	opts.OnProgress = func(p Progress) { snaps = append(snaps, p) }
	if opts.ProgressEvery == 0 {
		opts.ProgressEvery = time.Millisecond
	}
	rep, err := RunContext(ctx, spec, exec, opts)
	return snaps, rep, err
}

// TestProgressSnapshotContract is the contract the serve SSE hub
// depends on: snapshots arrive while the campaign runs, Done never
// decreases, exactly one Final snapshot is delivered, it is the last
// one, and it happens before RunContext returns with the settled
// counters.
func TestProgressSnapshotContract(t *testing.T) {
	spec := testSpec(64)
	slow := func(ctx context.Context, c Cell, rng *xrand.Rand) (uint64, error) {
		time.Sleep(200 * time.Microsecond)
		return drawSum(ctx, c, rng)
	}
	snaps, rep, err := collectProgress(t, context.Background(), spec, slow, Options[uint64]{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots delivered")
	}
	last := -1
	finals := 0
	for i, p := range snaps {
		if p.Campaign != "unit" || p.Total != 64 {
			t.Fatalf("snapshot %d: campaign %q total %d, want unit/64", i, p.Campaign, p.Total)
		}
		if p.Done < last {
			t.Fatalf("snapshot %d: Done %d < previous %d (not monotonic)", i, p.Done, last)
		}
		last = p.Done
		if p.Final {
			finals++
			if i != len(snaps)-1 {
				t.Fatalf("Final snapshot at index %d of %d: not last", i, len(snaps))
			}
		}
	}
	if finals != 1 {
		t.Fatalf("got %d Final snapshots, want exactly 1", finals)
	}
	fin := snaps[len(snaps)-1]
	if fin.Done != 64 || fin.Executed != rep.Executed || fin.Failed != rep.Failed {
		t.Fatalf("final snapshot %+v does not match report (executed %d, failed %d)",
			fin, rep.Executed, rep.Failed)
	}
	if fin.DeviceBusy["AMD"] <= 0 || fin.DeviceBusy["Intel"] <= 0 {
		t.Fatalf("final snapshot lost device busy time: %v", fin.DeviceBusy)
	}
	if fin.CellsPerSec <= 0 {
		t.Fatalf("final snapshot cells/s = %v, want > 0", fin.CellsPerSec)
	}
}

// TestProgressFinalWithoutTicks proves the final snapshot does not
// depend on the cadence: a campaign far shorter than ProgressEvery
// still delivers exactly one (Final) snapshot before returning.
func TestProgressFinalWithoutTicks(t *testing.T) {
	spec := testSpec(5)
	var got atomic.Int32
	var final atomic.Bool
	_, err := Run(spec, drawSum, Options[uint64]{
		Workers:       4,
		ProgressEvery: time.Hour,
		OnProgress: func(p Progress) {
			got.Add(1)
			final.Store(p.Final)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Load() != 1 || !final.Load() {
		t.Fatalf("got %d snapshots (final %v), want exactly 1 final one", got.Load(), final.Load())
	}
}

// TestProgressInterrupted: a cancelled campaign still settles and
// emits its final snapshot — with the interrupted count — before
// RunContext returns, so a streaming consumer always observes the
// drain verdict.
func TestProgressInterrupted(t *testing.T) {
	spec := testSpec(40)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	exec := func(ctx context.Context, c Cell, rng *xrand.Rand) (uint64, error) {
		// Every exec from the eighth on cancels (cancel is idempotent):
		// with only the eighth doing it, that exec could be descheduled
		// between Add and cancel while the other worker ran all 32
		// remaining cells, leaving nothing to interrupt.
		if started.Add(1) >= 8 {
			cancel()
		}
		return drawSum(ctx, c, rng)
	}
	snaps, rep, err := collectProgress(t, ctx, spec, exec, Options[uint64]{Workers: 2})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots delivered")
	}
	fin := snaps[len(snaps)-1]
	if !fin.Final {
		t.Fatalf("last snapshot not Final: %+v", fin)
	}
	if fin.Interrupted != rep.Interrupted || fin.Interrupted == 0 {
		t.Fatalf("final snapshot Interrupted = %d, report %d (want equal, nonzero)",
			fin.Interrupted, rep.Interrupted)
	}
	if fin.Done+fin.Interrupted != fin.Total {
		t.Fatalf("final snapshot inconsistent: done %d + interrupted %d != total %d",
			fin.Done, fin.Interrupted, fin.Total)
	}
}

// TestProgressReplayAndBreaker: replayed cells and breaker verdicts
// land in the final snapshot exactly as in the settled report.
func TestProgressReplayAndBreaker(t *testing.T) {
	spec := testSpec(24)
	dir := t.TempDir()
	ck, err := OpenCheckpoint(dir+"/ck", spec, false)
	if err != nil {
		t.Fatal(err)
	}
	// Complete the first 10 cells, then resume with progress enabled.
	n := 0
	_, err = Run(spec, func(ctx context.Context, c Cell, rng *xrand.Rand) (uint64, error) {
		return drawSum(ctx, c, rng)
	}, Options[uint64]{Checkpoint: ck, Workers: 1, OnCellStart: func(Cell) { n++ }})
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	ck, err = OpenCheckpoint(dir+"/ck", spec, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	snaps, rep, err := collectProgress(t, context.Background(), spec, drawSum,
		Options[uint64]{Workers: 4, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	fin := snaps[len(snaps)-1]
	if fin.Replayed != rep.Replayed || fin.Replayed != len(spec.Cells) {
		t.Fatalf("final Replayed = %d, report %d, want %d", fin.Replayed, rep.Replayed, len(spec.Cells))
	}
	if fin.Done != fin.Total {
		t.Fatalf("final Done = %d, want %d", fin.Done, fin.Total)
	}
}
