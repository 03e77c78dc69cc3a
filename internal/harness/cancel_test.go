package harness

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gpu"
	"repro/internal/mutation"
	"repro/internal/xrand"
)

// TestRunCtxCancelledBetweenIterations: a cancelled context stops the
// iteration loop before the next launch and the error carries the
// context cause plus how far the run got.
func TestRunCtxCancelledBetweenIterations(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	r, err := NewRunner(device(t, "AMD", gpu.Bugs{}), stressedPTE())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = r.RunCtx(ctx, test, 5, xrand.New(3))
	if err == nil {
		t.Fatal("cancelled run returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
}

// TestRunnerReusableAfterCancel: an interrupted RunInto leaves the
// runner's scratch coherent — the next run with the same seed matches a
// fresh runner exactly.
func TestRunnerReusableAfterCancel(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	warm, err := NewRunner(device(t, "AMD", gpu.Bugs{}), stressedPTE())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var res Result
	if err := warm.RunInto(ctx, &res, test, 3, xrand.New(9)); err == nil {
		t.Fatal("cancelled RunInto succeeded")
	}
	got, err := warm.RunCtx(context.Background(), test, 3, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewRunner(device(t, "AMD", gpu.Bugs{}), stressedPTE())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.RunCtx(context.Background(), test, 3, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != want.Iterations || got.Instances != want.Instances ||
		got.TargetCount != want.TargetCount || got.SimSeconds != want.SimSeconds {
		t.Fatalf("warm runner diverged after cancel:\n got %+v\nwant %+v", got, want)
	}
}
