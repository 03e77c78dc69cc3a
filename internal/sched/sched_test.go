package sched

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/xrand"
)

// testSpec builds an n-cell campaign over two fake devices.
func testSpec(n int) Spec {
	s := Spec{Name: "unit", Seed: 42}
	for i := 0; i < n; i++ {
		dev := "AMD"
		if i%2 == 1 {
			dev = "Intel"
		}
		s.Cells = append(s.Cells, Cell{Key: fmt.Sprintf("cell-%03d", i), Device: dev})
	}
	return s
}

// drawSum is a deterministic per-cell "result": a few RNG draws summed,
// so any dependence on scheduling order shows up immediately.
func drawSum(_ context.Context, _ Cell, rng *xrand.Rand) (uint64, error) {
	var sum uint64
	for i := 0; i < 16; i++ {
		sum += rng.Uint64()
	}
	return sum, nil
}

func TestSpecValidate(t *testing.T) {
	if err := (&Spec{}).Validate(); err == nil {
		t.Error("nameless empty spec accepted")
	}
	s := Spec{Name: "x", Cells: []Cell{{Key: "a"}, {Key: "a"}}}
	if err := s.Validate(); err == nil {
		t.Error("duplicate keys accepted")
	}
	s = Spec{Name: "x", Cells: []Cell{{Key: ""}}}
	if err := s.Validate(); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := Run(Spec{Name: "x"}, drawSum, Options[uint64]{}); err == nil {
		t.Error("Run accepted empty spec")
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	spec := testSpec(37)
	var want []uint64
	for _, workers := range []int{1, 4, 8, 64} {
		rep, err := Run(spec, drawSum, Options[uint64]{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := rep.Values()
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: cell %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestResultsInSpecOrder(t *testing.T) {
	spec := testSpec(20)
	rep, err := Run(spec, func(_ context.Context, c Cell, _ *xrand.Rand) (string, error) {
		return c.Key, nil
	}, Options[string]{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range rep.Values() {
		if v != spec.Cells[i].Key {
			t.Fatalf("result %d = %q, want %q", i, v, spec.Cells[i].Key)
		}
	}
	if rep.Executed != 20 || rep.Replayed != 0 || rep.Failed != 0 {
		t.Fatalf("counters: %+v", rep)
	}
}

func TestPanicRecovery(t *testing.T) {
	spec := testSpec(5)
	_, err := Run(spec, func(_ context.Context, c Cell, _ *xrand.Rand) (int, error) {
		if c.Key == "cell-002" {
			panic("device exploded")
		}
		return 1, nil
	}, Options[int]{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "device exploded") {
		t.Fatalf("panic not surfaced as error: %v", err)
	}
	if err != nil && !strings.Contains(err.Error(), "cell-002") {
		t.Fatalf("error does not name the cell: %v", err)
	}
}

func TestTransientRetry(t *testing.T) {
	spec := testSpec(3)
	var calls atomic.Int32
	rep, err := Run(spec, func(_ context.Context, c Cell, _ *xrand.Rand) (int, error) {
		if c.Key == "cell-001" && calls.Add(1) < 3 {
			return 0, Transient(fmt.Errorf("busy"))
		}
		return 7, nil
	}, Options[int]{Workers: 2, MaxRetries: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[1].Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", rep.Results[1].Attempts)
	}
	if rep.Results[0].Attempts != 1 || rep.Results[2].Attempts != 1 {
		t.Fatal("healthy cells should run once")
	}
}

func TestTransientRetryExhaustion(t *testing.T) {
	spec := testSpec(1)
	rep, err := Run(spec, func(context.Context, Cell, *xrand.Rand) (int, error) {
		return 0, Transient(fmt.Errorf("always busy"))
	}, Options[int]{MaxRetries: 2})
	if err == nil {
		t.Fatal("exhausted retries did not fail")
	}
	if rep.Results[0].Attempts != 3 { // first try + 2 retries
		t.Fatalf("attempts = %d, want 3", rep.Results[0].Attempts)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	spec := testSpec(1)
	rep, err := Run(spec, func(context.Context, Cell, *xrand.Rand) (int, error) {
		return 0, fmt.Errorf("deterministic defect")
	}, Options[int]{MaxRetries: 5})
	if err == nil {
		t.Fatal("permanent error swallowed")
	}
	if rep.Results[0].Attempts != 1 {
		t.Fatalf("permanent error retried %d times", rep.Results[0].Attempts)
	}
}

func TestTransientMarker(t *testing.T) {
	if Transient(nil) != nil {
		t.Error("Transient(nil) != nil")
	}
	base := fmt.Errorf("x")
	wrapped := fmt.Errorf("outer: %w", Transient(base))
	if !IsTransient(wrapped) {
		t.Error("wrapped transient not detected")
	}
	if IsTransient(base) {
		t.Error("plain error detected as transient")
	}
}

func TestFailFastAborts(t *testing.T) {
	// Serial worker: cell 1 fails, later cells must not run.
	spec := testSpec(10)
	var ran atomic.Int32
	rep, err := Run(spec, func(_ context.Context, c Cell, _ *xrand.Rand) (int, error) {
		ran.Add(1)
		if c.Key == "cell-001" {
			return 0, fmt.Errorf("boom")
		}
		return 1, nil
	}, Options[int]{Workers: 1})
	if err == nil {
		t.Fatal("fail-fast returned nil error")
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("%d cells ran after failure, want 2", got)
	}
	if rep.Aborted != 8 {
		t.Fatalf("Aborted = %d, want 8", rep.Aborted)
	}
}

func TestCollectPolicyRunsEverything(t *testing.T) {
	spec := testSpec(10)
	var ran atomic.Int32
	rep, err := Run(spec, func(_ context.Context, c Cell, _ *xrand.Rand) (int, error) {
		ran.Add(1)
		if c.Key == "cell-001" || c.Key == "cell-007" {
			return 0, fmt.Errorf("boom")
		}
		return 1, nil
	}, Options[int]{Workers: 3, Collect: true})
	if err != nil {
		t.Fatalf("collect policy returned error: %v", err)
	}
	if got := ran.Load(); got != 10 {
		t.Fatalf("%d cells ran, want 10", got)
	}
	if rep.Failed != 2 {
		t.Fatalf("Failed = %d, want 2", rep.Failed)
	}
	if rep.FirstErr() == nil || !strings.Contains(rep.FirstErr().Error(), "cell-001") {
		t.Fatalf("FirstErr = %v", rep.FirstErr())
	}
}

func TestOnCellStartAndReporter(t *testing.T) {
	spec := testSpec(12)
	var mu sync.Mutex
	var started []string
	var lines []string
	_, err := Run(spec, func(_ context.Context, _ Cell, rng *xrand.Rand) (int, error) {
		return 100, nil
	}, Options[int]{
		Workers:    4,
		OnProgress: func(p Progress) { lines = append(lines, p.String()) },
		OnCellStart: func(c Cell) {
			mu.Lock()
			started = append(started, c.Key)
			mu.Unlock()
		},
		Instances: func(v int) int { return v },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 12 {
		t.Fatalf("OnCellStart fired %d times, want 12", len(started))
	}
	if len(lines) == 0 {
		t.Fatal("no progress line emitted")
	}
	last := lines[len(lines)-1]
	for _, want := range []string{"unit: 12/12 cells", "cells/s", "instances/s", "util", "AMD", "Intel", "done"} {
		if !strings.Contains(last, want) {
			t.Errorf("final line missing %q: %s", want, last)
		}
	}
}

func TestCellRandIndependentOfOrder(t *testing.T) {
	spec := testSpec(2)
	a1 := spec.CellRand("cell-000", 0).Uint64()
	// Drawing for another cell in between must not perturb cell-000.
	_ = spec.CellRand("cell-001", 0).Uint64()
	a2 := spec.CellRand("cell-000", 0).Uint64()
	if a1 != a2 {
		t.Fatal("CellRand depends on call order")
	}
	if spec.CellRand("cell-000", 0).Uint64() == spec.CellRand("cell-000", 1).Uint64() {
		t.Fatal("attempts share a stream")
	}
}

// TestNewWorkerExecPerWorker verifies the per-worker executor factory:
// it is invoked exactly once per spawned worker (so worker-private
// scratch is never shared across goroutines), and campaigns built from
// it remain deterministic — identical to the shared-exec run — at
// every worker count.
func TestNewWorkerExecPerWorker(t *testing.T) {
	spec := testSpec(24)
	base, err := Run(spec, drawSum, Options[uint64]{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8, 64} {
		var made atomic.Int32
		opts := Options[uint64]{Workers: workers}
		opts.NewWorkerExec = func() Exec[uint64] {
			made.Add(1)
			// Worker-private scratch, reused across this worker's cells:
			// sharing it between goroutines would be a data race, which
			// is exactly what the factory exists to prevent.
			scratch := make([]uint64, 0, 16)
			return func(_ context.Context, c Cell, rng *xrand.Rand) (uint64, error) {
				scratch = scratch[:0]
				for i := 0; i < 16; i++ {
					scratch = append(scratch, rng.Uint64())
				}
				var sum uint64
				for _, v := range scratch {
					sum += v
				}
				return sum, nil
			}
		}
		rep, err := Run(spec, drawSum, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := workers
		if want > len(spec.Cells) {
			want = len(spec.Cells)
		}
		if int(made.Load()) != want {
			t.Errorf("workers=%d: factory called %d times, want %d", workers, made.Load(), want)
		}
		got := rep.Values()
		for i, v := range base.Values() {
			if got[i] != v {
				t.Fatalf("workers=%d: cell %d = %d, want %d (per-worker exec changed results)",
					workers, i, got[i], v)
			}
		}
	}
}
