package tuning

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// TestChaosCampaignDeterministicAcrossWorkers is the acceptance
// scenario for graceful degradation: a faulty fleet with the breaker
// enabled completes the campaign, drops cells into Dataset.Dropped,
// and serializes byte-identically at every worker count.
func TestChaosCampaignDeterministicAcrossWorkers(t *testing.T) {
	cfg, tests := campaignConfig()
	fm := gpu.UniformFaults(cfg.Seed, 0.3)
	cfg.Faults = &fm
	opts := func(workers int) RunOptions {
		return RunOptions{Workers: workers, Breaker: &sched.BreakerOptions{}}
	}
	serial, err := RunCampaign(cfg, tests, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Dropped) == 0 {
		t.Fatal("test vacuous: 30% fault rate dropped no cells")
	}
	if len(serial.Records) == 0 {
		t.Fatal("faulty fleet produced no surviving records")
	}
	quarantined := 0
	for _, d := range serial.Dropped {
		if d.Quarantined {
			quarantined++
		}
	}
	if quarantined == 0 {
		t.Fatal("test vacuous: breaker quarantined no cells")
	}
	for _, workers := range []int{4, 8} {
		parallel, err := RunCampaign(cfg, tests, opts(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		datasetsIdentical(t, serial, parallel, fmt.Sprintf("workers=1 vs workers=%d", workers))
		if len(parallel.Dropped) != len(serial.Dropped) {
			t.Fatalf("workers=%d: %d dropped vs %d", workers, len(parallel.Dropped), len(serial.Dropped))
		}
		for i := range serial.Dropped {
			if parallel.Dropped[i] != serial.Dropped[i] {
				t.Fatalf("workers=%d: dropped[%d] = %+v, want %+v",
					workers, i, parallel.Dropped[i], serial.Dropped[i])
			}
		}
	}
}

// TestChaosCampaignResumeMatchesCleanRun kills a faulty campaign
// mid-way and resumes it: replayed cells, freshly executed cells, and
// dropped cells must all settle into the same dataset as an
// uninterrupted chaotic run.
func TestChaosCampaignResumeMatchesCleanRun(t *testing.T) {
	cfg, tests := campaignConfig()
	fm := gpu.UniformFaults(cfg.Seed+7, 0.3)
	cfg.Faults = &fm
	breaker := &sched.BreakerOptions{}
	clean, err := RunCampaign(cfg, tests, RunOptions{Workers: 4, Breaker: breaker})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Dropped) == 0 {
		t.Fatal("test vacuous: chaotic reference run dropped nothing")
	}

	ckpt := filepath.Join(t.TempDir(), "chaos.ckpt")
	spec, work, err := buildCampaign(&cfg, tests)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := sched.OpenCheckpoint(ckpt, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	// The interrupted run executes the first third of the campaign with
	// faults live — so the checkpoint holds only cells that survived
	// their own injected faults — then dies.
	killAfter := len(spec.Cells) / 3
	ran := 0
	exec := newWorkerExec(work, cfg.Faults)()
	_, err = sched.Run(spec, func(ctx context.Context, c sched.Cell, rng *xrand.Rand) (measurement, error) {
		if ran++; ran > killAfter {
			return measurement{}, fmt.Errorf("simulated kill")
		}
		return exec(ctx, c, rng)
	}, sched.Options[measurement]{Workers: 1, Checkpoint: ck})
	if err == nil {
		t.Fatal("interrupted run succeeded")
	}
	ck.Close()

	resumed, err := RunCampaign(cfg, tests, RunOptions{
		Workers:        4,
		CheckpointPath: ckpt,
		Resume:         true,
		Breaker:        breaker,
	})
	if err != nil {
		t.Fatal(err)
	}
	datasetsIdentical(t, clean, resumed, "chaotic clean vs resumed")
	if len(resumed.Dropped) != len(clean.Dropped) {
		t.Fatalf("resume dropped %d cells, clean dropped %d", len(resumed.Dropped), len(clean.Dropped))
	}
}

// TestCancelChaosResumeByteIdentical is the end-to-end drain contract
// at the tuning level: cancel a parallel campaign at a randomized (but
// seed-derived, so reproducible) cell index through the real
// cancellation path, then resume from the checkpoint and require the
// final dataset byte-identical to a never-interrupted baseline. The
// reporter heartbeat runs throughout, and goroutine counts are checked
// after the drains so an interrupted campaign can never leak it.
func TestCancelChaosResumeByteIdentical(t *testing.T) {
	cfg, tests := campaignConfig()
	clean, err := RunCampaign(cfg, tests, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	spec, _, err := buildCampaign(&cfg, tests)
	if err != nil {
		t.Fatal(err)
	}
	nCells := len(spec.Cells)
	picker := xrand.New(cfg.Seed ^ 0x63616e63) // "canc"
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		// Cancel somewhere strictly inside the campaign so the drain has
		// both completed and pending cells to deal with.
		cancelAt := 1 + int(picker.Uint64()%uint64(nCells-2))
		ckpt := filepath.Join(t.TempDir(), fmt.Sprintf("cancel-%d.ckpt", round))

		ctx, cancel := context.WithCancel(context.Background())
		started := 0
		partial, err := RunCampaignCtx(ctx, cfg, tests, RunOptions{
			Workers:        2,
			CheckpointPath: ckpt,
			OnProgress:     func(sched.Progress) {},
			ProgressEvery:  time.Millisecond,
			Progress: func(string) {
				if started++; started == cancelAt {
					cancel()
				}
			},
		})
		cancel()
		if err != nil {
			t.Fatalf("round %d: drain returned error: %v", round, err)
		}
		if !partial.Interrupted {
			t.Fatalf("round %d (cancel at %d): dataset not marked interrupted", round, cancelAt)
		}
		if len(partial.Records) >= nCells {
			t.Fatalf("round %d: interrupted run completed everything", round)
		}
		if len(partial.Dropped) != 0 {
			t.Fatalf("round %d: interruption recorded drops: %+v", round, partial.Dropped)
		}

		resumed, err := RunCampaignCtx(context.Background(), cfg, tests, RunOptions{
			Workers:        4,
			CheckpointPath: ckpt,
			Resume:         true,
		})
		if err != nil {
			t.Fatalf("round %d: resume: %v", round, err)
		}
		if resumed.Interrupted {
			t.Fatalf("round %d: resumed run still marked interrupted", round)
		}
		datasetsIdentical(t, clean, resumed, fmt.Sprintf("round %d (cancel at %d)", round, cancelAt))
	}
	// The heartbeat goroutines are joined before RunCampaignCtx returns;
	// give unrelated runtime goroutines a moment to settle.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after interrupted campaigns", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCampaignCtxPreCancelled: a dead context yields an all-pending
// dataset — no records, no drops, Interrupted set — and no error.
func TestCampaignCtxPreCancelled(t *testing.T) {
	cfg, tests := campaignConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds, err := RunCampaignCtx(ctx, cfg, tests, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Interrupted || len(ds.Records) != 0 || len(ds.Dropped) != 0 {
		t.Fatalf("pre-cancelled campaign: interrupted=%v records=%d dropped=%d",
			ds.Interrupted, len(ds.Records), len(ds.Dropped))
	}
}

// TestCampaignCellTimeoutDoesNotInterrupt: a generous per-cell budget
// leaves a healthy campaign untouched — same dataset, not interrupted.
func TestCampaignCellTimeoutDoesNotInterrupt(t *testing.T) {
	cfg, tests := campaignConfig()
	clean, err := RunCampaign(cfg, tests, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := RunCampaign(cfg, tests, RunOptions{Workers: 2, CellTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Interrupted {
		t.Fatal("cell timeout marked the campaign interrupted")
	}
	datasetsIdentical(t, clean, bounded, "clean vs cell-timeout")
}
