package harness

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gpu"
	"repro/internal/litmus"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// faultyRunner builds a runner over an AMD device with the given fault
// model installed.
func faultyRunner(t *testing.T, fm gpu.FaultModel, env Params) *Runner {
	t.Helper()
	d := device(t, "AMD", gpu.Bugs{})
	if err := d.SetFaults(fm); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(d, env)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunDiscardsCorruptedIterations: with certain result corruption,
// every iteration is detected as out-of-domain, discarded, and the run
// fails with a transient corruption error rather than classifying
// poisoned outcomes as memory-model violations.
func TestRunDiscardsCorruptedIterations(t *testing.T) {
	r := faultyRunner(t, gpu.FaultModel{Seed: 3, CorruptProb: 1}, smallPTE())
	_, err := r.RunCtx(context.Background(), litmus.MP(), 5, xrand.New(1))
	if !errors.Is(err, gpu.ErrResultCorrupt) {
		t.Fatalf("err = %v, want ErrResultCorrupt", err)
	}
	if !sched.IsTransient(err) {
		t.Fatal("all-poisoned run must classify as transient so the cell is retried")
	}
}

// TestRunCountsDiscardedIterations: at a partial corruption rate,
// poisoned iterations are discarded (counted in Discarded) while clean
// iterations are classified normally, and no out-of-domain value ever
// reaches the histogram.
func TestRunCountsDiscardedIterations(t *testing.T) {
	r := faultyRunner(t, gpu.FaultModel{Seed: 3, CorruptProb: 0.4}, smallPTE())
	test := litmus.MP()
	res, err := r.RunCtx(context.Background(), test, 40, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Discarded == 0 {
		t.Fatal("40% corruption discarded nothing in 40 iterations")
	}
	if res.Iterations == 0 {
		t.Fatal("every iteration discarded at 40% corruption")
	}
	if res.Iterations+res.Discarded != 40 {
		t.Fatalf("Iterations=%d + Discarded=%d != 40", res.Iterations, res.Discarded)
	}
	// The defensive property: corruption never reaches classification,
	// so a conformant device shows zero violations even at a 40% fault
	// rate. (Unvalidated, the garbage values would classify as
	// inconsistent outcomes — false MCS violations.)
	if res.Violations != 0 {
		t.Fatalf("%d violations on a conformant device: corruption leaked into classification", res.Violations)
	}
}

// TestRunSurfacesDeviceErrors: injected launch failures surface as
// typed transient errors; a lost device surfaces as permanent.
func TestRunSurfacesDeviceErrors(t *testing.T) {
	r := faultyRunner(t, gpu.FaultModel{Seed: 3, LaunchFailProb: 1}, smallPTE())
	_, err := r.RunCtx(context.Background(), litmus.MP(), 3, xrand.New(1))
	if !errors.Is(err, gpu.ErrLaunchFailed) {
		t.Fatalf("err = %v, want ErrLaunchFailed", err)
	}
	if !sched.IsTransient(err) {
		t.Fatal("launch failure must be transient")
	}

	lost := faultyRunner(t, gpu.FaultModel{Seed: 3, LaunchFailProb: 1, LossAfter: 1}, smallPTE())
	if _, err := lost.RunCtx(context.Background(), litmus.MP(), 3, xrand.New(1)); !errors.Is(err, gpu.ErrLaunchFailed) {
		t.Fatalf("first run: %v, want ErrLaunchFailed", err)
	}
	_, err = lost.RunCtx(context.Background(), litmus.MP(), 3, xrand.New(2))
	if !errors.Is(err, gpu.ErrDeviceLost) {
		t.Fatalf("err = %v, want ErrDeviceLost", err)
	}
	if sched.IsTransient(err) {
		t.Fatal("device loss must be permanent")
	}
}

// TestFaultFreeResultsUnchanged: installing the zero fault model leaves
// a run's result identical to a plain device's, including the absence
// of discards — the guard for pre-existing datasets.
func TestFaultFreeResultsUnchanged(t *testing.T) {
	env := stressedPTE()
	plain, err := NewRunner(device(t, "AMD", gpu.Bugs{}), env)
	if err != nil {
		t.Fatal(err)
	}
	faulted := faultyRunner(t, gpu.FaultModel{}, env)
	a, err := plain.RunCtx(context.Background(), litmus.MP(), 10, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := faulted.RunCtx(context.Background(), litmus.MP(), 10, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Discarded != 0 || b.Discarded != 0 {
		t.Fatalf("fault-free runs discarded iterations: %d, %d", a.Discarded, b.Discarded)
	}
	if a.Instances != b.Instances || a.TargetCount != b.TargetCount ||
		a.Violations != b.Violations || a.SimSeconds != b.SimSeconds {
		t.Fatalf("fault-free results diverged: %+v vs %+v", a, b)
	}
}

// TestMergeSumsDiscarded: Merge accumulates the Discarded counter.
func TestMergeSumsDiscarded(t *testing.T) {
	a := &Result{TestName: "MP", Discarded: 2}
	b := &Result{TestName: "MP", Discarded: 3}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Discarded != 5 {
		t.Fatalf("Discarded = %d, want 5", a.Discarded)
	}
}
