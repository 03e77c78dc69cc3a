package harness

// Tests for the Runner's reusable scratch: merging results with
// preallocated histograms, and the guarantee that a warm Runner —
// arenas grown, buffers dirtied by other tests — produces results
// byte-identical to a fresh one.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/gpu"
	"repro/internal/litmus"
	"repro/internal/mm"
	"repro/internal/mutation"
	"repro/internal/xrand"
)

// TestMergeDisjointOutcomes merges results whose histograms share no
// outcome keys: the merged histogram must carry every key at its
// original count, with totals, target counts and violation counts
// recomputed, starting from a nil histogram sized by the first
// incoming result.
func TestMergeDisjointOutcomes(t *testing.T) {
	oc := func(r0, r1 mm.Val) litmus.Outcome {
		return litmus.Outcome{Regs: []mm.Val{r0, r1}}
	}
	ha := litmus.NewHistogram()
	ha.AddN(oc(0, 0), false, false, 3)
	ha.AddN(oc(1, 0), true, false, 2)
	hb := litmus.NewHistogram()
	hb.AddN(oc(0, 1), false, false, 5)
	hb.AddN(oc(1, 1), false, true, 1)

	a := &Result{TestName: "MP", Iterations: 1, Instances: 5, SimSeconds: 0.5, Hist: ha}
	b := &Result{TestName: "MP", Iterations: 2, Instances: 6, SimSeconds: 0.25, Hist: hb}

	merged := &Result{TestName: "MP"}
	if err := merged.Merge(a); err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(b); err != nil {
		t.Fatal(err)
	}
	if merged.Hist.Distinct() != 4 {
		t.Errorf("merged Distinct = %d, want 4", merged.Hist.Distinct())
	}
	if merged.Hist.Total() != 11 {
		t.Errorf("merged Total = %d, want 11", merged.Hist.Total())
	}
	if merged.TargetCount != 2 || merged.Violations != 1 {
		t.Errorf("merged target/violations = %d/%d, want 2/1", merged.TargetCount, merged.Violations)
	}
	if merged.Iterations != 3 || merged.Instances != 11 || merged.SimSeconds != 0.75 {
		t.Errorf("merged counters: %+v", merged)
	}
	for _, w := range []struct {
		o litmus.Outcome
		n int
	}{{oc(0, 0), 3}, {oc(1, 0), 2}, {oc(0, 1), 5}, {oc(1, 1), 1}} {
		if got := merged.Hist.Count(w.o.Key()); got != w.n {
			t.Errorf("merged count[%s] = %d, want %d", w.o.Key(), got, w.n)
		}
	}
	if err := merged.Merge(&Result{TestName: "SB"}); err == nil {
		t.Error("merging a different test's result was accepted")
	}
}

// TestRunnerReuseMatchesFresh runs the same seeded workload on a fresh
// Runner and on a Runner warmed — and dirtied — by other tests and a
// differently-shaped plan, reusing one Result across all of it. Any
// stale-scratch leakage (plan arrays, outcome arenas, histogram keys,
// cached domains) would break the field-for-field and key-for-key
// equality asserted here.
func TestRunnerReuseMatchesFresh(t *testing.T) {
	suite := mutation.MustGenerate()
	mp, _ := suite.ByName("MP")
	sb, _ := suite.ByName("SB")

	fresh, err := NewRunner(device(t, "AMD", gpu.Bugs{}), stressedPTE())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.RunCtx(context.Background(), mp, 3, xrand.New(99))
	if err != nil {
		t.Fatal(err)
	}

	warm, err := NewRunner(device(t, "AMD", gpu.Bugs{}), stressedPTE())
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := warm.RunInto(context.Background(), &res, sb, 2, xrand.New(5)); err != nil {
		t.Fatal(err)
	}
	if err := warm.RunInto(context.Background(), &res, mp, 1, xrand.New(17)); err != nil {
		t.Fatal(err)
	}
	if err := warm.RunInto(context.Background(), &res, mp, 3, xrand.New(99)); err != nil {
		t.Fatal(err)
	}

	if res.TestName != want.TestName || res.IsMutant != want.IsMutant ||
		res.Iterations != want.Iterations || res.Discarded != want.Discarded ||
		res.Instances != want.Instances || res.TargetCount != want.TargetCount ||
		res.Violations != want.Violations || res.SimSeconds != want.SimSeconds {
		t.Fatalf("warm runner diverged:\n got %+v\nwant %+v", res, *want)
	}
	gotJSON, err := res.Hist.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.Hist.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("warm runner histogram diverged:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	if !reflect.DeepEqual(res.FirstViolation, want.FirstViolation) {
		t.Fatalf("FirstViolation diverged: %+v vs %+v", res.FirstViolation, want.FirstViolation)
	}
}

// TestWarmRunnerOneEntry: a WarmRunner builds only when the key
// changes, keeps a single entry, drops it when a build fails, and
// re-installs the fault model on every Get, so a reused device starts
// loss escalation from zero exactly like a new one.
func TestWarmRunnerOneEntry(t *testing.T) {
	test, ok := mutation.MustGenerate().ByName("MP")
	if !ok {
		t.Fatal("MP missing from suite")
	}
	builds := 0
	w := WarmRunner[string]{New: func(k string) (*Runner, error) {
		builds++
		if k == "bad" {
			return nil, errors.New("no such device")
		}
		prof, _ := gpu.ProfileByName("AMD")
		return NewRunner(gpu.MustDevice(prof, gpu.Bugs{}), smallPTE())
	}}
	none := gpu.FaultModel{}
	get := func(k string) *Runner {
		t.Helper()
		r, err := w.Get(k, none)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := get("a")
	if get("a") != a || builds != 1 {
		t.Fatalf("same key rebuilt: %d builds", builds)
	}
	if get("b") == a || builds != 2 {
		t.Fatalf("key change reused the runner: %d builds", builds)
	}
	get("a")
	if builds != 3 {
		t.Fatalf("returning to an evicted key: %d builds, want 3", builds)
	}
	if _, err := w.Get("bad", none); err == nil {
		t.Fatal("failed build returned a runner")
	}
	get("bad2")
	if builds != 5 {
		t.Fatalf("failed build left an entry behind: %d builds, want 5", builds)
	}

	// Every launch fails; the second injected fault loses the device.
	faults := gpu.FaultModel{Seed: 1, LaunchFailProb: 1, LossAfter: 1}
	kind := func() gpu.FaultKind {
		t.Helper()
		r, err := w.Get("bad2", faults)
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.RunCtx(context.Background(), test, 1, xrand.New(3))
		var de *gpu.DeviceError
		if !errors.As(err, &de) {
			t.Fatalf("faulted run returned %v, want a device error", err)
		}
		return de.Kind
	}
	for i := 0; i < 3; i++ {
		if k := kind(); k != gpu.FaultLaunch {
			t.Fatalf("Get %d: first launch on a reused device failed with %v, want a launch fault (stale fault count)", i, k)
		}
	}
	if builds != 5 {
		t.Fatalf("fault re-installation rebuilt the runner: %d builds", builds)
	}
}
