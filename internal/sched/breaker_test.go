package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/xrand"
)

// failingDeviceExec fails every AMD cell and succeeds every other.
func failingDeviceExec(_ context.Context, c Cell, _ *xrand.Rand) (int, error) {
	if c.Device == "AMD" {
		return 0, fmt.Errorf("amd is down")
	}
	return 1, nil
}

// TestBreakerQuarantinesAfterThreshold: a device failing every cell
// trips the breaker after Threshold consecutive failures; cooldown
// cells are quarantined, each probation cell fails and re-opens the
// breaker, and the other device is untouched.
func TestBreakerQuarantinesAfterThreshold(t *testing.T) {
	spec := testSpec(20) // 10 AMD cells, 10 Intel cells, interleaved
	rep, err := Run(spec, failingDeviceExec, Options[int]{
		Workers: 1,
		Breaker: &BreakerOptions{Threshold: 3, Cooldown: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// AMD positions (spec order): F F F | Q Q | F | Q Q | F | Q
	if rep.Failed != 5 || rep.Quarantined != 5 {
		t.Fatalf("Failed=%d Quarantined=%d, want 5 and 5", rep.Failed, rep.Quarantined)
	}
	if len(rep.Results) != len(spec.Cells) {
		t.Fatalf("results dropped: %d of %d", len(rep.Results), len(spec.Cells))
	}
	for _, r := range rep.Results {
		switch {
		case r.Cell.Device == "Intel":
			if r.Err != nil {
				t.Fatalf("%s: healthy device failed: %v", r.Cell.Key, r.Err)
			}
		case r.Quarantined:
			if !errors.Is(r.Err, ErrQuarantined) {
				t.Fatalf("%s: quarantined cell has err %v", r.Cell.Key, r.Err)
			}
		default:
			if r.Err == nil {
				t.Fatalf("%s: AMD cell unexpectedly succeeded", r.Cell.Key)
			}
		}
	}
	if len(rep.Health) != 2 {
		t.Fatalf("Health has %d devices, want 2", len(rep.Health))
	}
	amd, intel := rep.Health[0], rep.Health[1]
	if amd.Device != "AMD" || intel.Device != "Intel" {
		t.Fatalf("health order: %+v", rep.Health)
	}
	if amd.Cells != 10 || amd.Failed != 5 || amd.Quarantined != 5 || !amd.Open {
		t.Fatalf("AMD health: %+v", amd)
	}
	if intel.Failed != 0 || intel.Quarantined != 0 || intel.Open {
		t.Fatalf("Intel health: %+v", intel)
	}
}

// TestBreakerProbationRecovery: a device that recovers after its first
// Threshold failures serves one cooldown, passes probation, and runs
// the rest of its cells normally with the breaker closed.
func TestBreakerProbationRecovery(t *testing.T) {
	spec := testSpec(20)
	amdSeen := 0
	rep, err := Run(spec, func(_ context.Context, c Cell, _ *xrand.Rand) (int, error) {
		if c.Device == "AMD" {
			amdSeen++
			if amdSeen <= 3 {
				return 0, fmt.Errorf("flaky start")
			}
		}
		return 1, nil
	}, Options[int]{
		Workers: 1,
		Breaker: &BreakerOptions{Threshold: 3, Cooldown: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// AMD positions: F F F | Q Q | ok ok ok ok ok
	if rep.Failed != 3 || rep.Quarantined != 2 {
		t.Fatalf("Failed=%d Quarantined=%d, want 3 and 2", rep.Failed, rep.Quarantined)
	}
	amd := rep.Health[0]
	if amd.Device != "AMD" || amd.Open {
		t.Fatalf("breaker should have closed after probation: %+v", amd)
	}
}

// chaoticExec fails deterministically from the cell's own rng stream,
// so the failure pattern is a pure function of the spec.
func chaoticExec(_ context.Context, _ Cell, rng *xrand.Rand) (uint64, error) {
	draw := rng.Uint64()
	if draw%4 == 0 {
		return 0, fmt.Errorf("deterministic fault %d", draw%97)
	}
	return draw, nil
}

// TestBreakerDeterministicAcrossWorkers: on a chaotic fleet with the
// breaker enabled, every worker count yields the identical report —
// values, errors, quarantine verdicts, counters and health.
func TestBreakerDeterministicAcrossWorkers(t *testing.T) {
	spec := testSpec(60)
	type cellView struct {
		Value       uint64
		Err         string
		Quarantined bool
	}
	var want []cellView
	var wantHealth []DeviceHealth
	wantFailed, wantQuarantined := 0, 0
	for _, workers := range []int{1, 4, 8} {
		rep, err := Run(spec, chaoticExec, Options[uint64]{
			Workers: workers,
			Breaker: &BreakerOptions{Threshold: 2, Cooldown: 3},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := make([]cellView, len(rep.Results))
		for i, r := range rep.Results {
			got[i] = cellView{Value: r.Value, Quarantined: r.Quarantined}
			if r.Err != nil {
				got[i].Err = r.Err.Error()
			}
		}
		if want == nil {
			want = got
			wantHealth = rep.Health
			wantFailed, wantQuarantined = rep.Failed, rep.Quarantined
			if rep.Quarantined == 0 {
				t.Fatal("test vacuous: chaotic fleet quarantined nothing")
			}
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: cell %d = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
		if rep.Failed != wantFailed || rep.Quarantined != wantQuarantined {
			t.Fatalf("workers=%d: Failed=%d Quarantined=%d, want %d and %d",
				workers, rep.Failed, rep.Quarantined, wantFailed, wantQuarantined)
		}
		if len(rep.Health) != len(wantHealth) {
			t.Fatalf("workers=%d: health size %d, want %d", workers, len(rep.Health), len(wantHealth))
		}
		for i := range rep.Health {
			if rep.Health[i] != wantHealth[i] {
				t.Fatalf("workers=%d: health[%d] = %+v, want %+v",
					workers, i, rep.Health[i], wantHealth[i])
			}
		}
	}
}

// TestBreakerDefaults: zero options mean threshold 3, cooldown 2.
func TestBreakerDefaults(t *testing.T) {
	var b BreakerOptions
	if b.threshold() != 3 || b.cooldown() != 2 {
		t.Fatalf("defaults: threshold=%d cooldown=%d", b.threshold(), b.cooldown())
	}
}

// TestBreakerImpliesCollect: with a breaker, permanent failures do not
// abort the campaign even though Collect was not set.
func TestBreakerImpliesCollect(t *testing.T) {
	spec := testSpec(10)
	ran := 0
	_, err := Run(spec, func(_ context.Context, c Cell, _ *xrand.Rand) (int, error) {
		ran++
		if c.Device == "Intel" {
			return 0, fmt.Errorf("boom")
		}
		return 1, nil
	}, Options[int]{Workers: 1, Breaker: &BreakerOptions{Threshold: 99}})
	if err != nil {
		t.Fatalf("breaker campaign aborted: %v", err)
	}
	if ran != 10 {
		t.Fatalf("%d cells ran, want 10", ran)
	}
}

// TestInjectedSleepBackoff: retry backoff goes through Options.Sleep
// with the jittered duration — base doubling per retry, scaled by the
// deterministic ±50% factor from the cell's split-seed RNG — so tests
// never wall-clock real sleeps.
func TestInjectedSleepBackoff(t *testing.T) {
	spec := testSpec(1)
	base := 100 * time.Millisecond
	var slept []time.Duration
	start := time.Now()
	rep, err := Run(spec, func(context.Context, Cell, *xrand.Rand) (int, error) {
		return 0, Transient(fmt.Errorf("busy"))
	}, Options[int]{
		MaxRetries: 3,
		Backoff:    base,
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
	})
	if err == nil {
		t.Fatal("exhausted retries did not fail")
	}
	if rep.Results[0].Attempts != 4 {
		t.Fatalf("attempts = %d, want 4", rep.Results[0].Attempts)
	}
	if len(slept) != 3 {
		t.Fatalf("slept %d times, want 3: %v", len(slept), slept)
	}
	for i, got := range slept {
		// The wait is exactly what RetryBackoff computes for this attempt…
		if want := spec.RetryBackoff("cell-000", i, base); got != want {
			t.Fatalf("sleep %d = %v, want RetryBackoff's %v", i, got, want)
		}
		// …and stays within the jitter envelope around the doubled base.
		nominal := base << uint(i)
		if got < nominal/2 || got >= nominal*3/2 {
			t.Fatalf("sleep %d = %v outside [%v, %v)", i, got, nominal/2, nominal*3/2)
		}
	}
	// The nominal backoff must not have actually elapsed.
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("fake sleep still wall-clocked %v", elapsed)
	}
}

// TestRetryBackoffDeterministic: the jittered schedule is a pure
// function of (seed, name, key, attempt) — identical across calls and
// distinct across cells and attempts.
func TestRetryBackoffDeterministic(t *testing.T) {
	spec := testSpec(2)
	base := 50 * time.Millisecond
	for attempt := 0; attempt < 4; attempt++ {
		a := spec.RetryBackoff("cell-000", attempt, base)
		if b := spec.RetryBackoff("cell-000", attempt, base); a != b {
			t.Fatalf("attempt %d: %v then %v — not deterministic", attempt, a, b)
		}
	}
	if spec.RetryBackoff("cell-000", 0, base) == spec.RetryBackoff("cell-001", 0, base) {
		t.Fatal("two cells drew identical jitter — streams not split by key")
	}
	if spec.RetryBackoff("cell-000", 0, 0) != 0 {
		t.Fatal("zero base must mean no wait")
	}
}

// TestTransientSelfClassification: an error carrying its own
// Transient() verdict is retried without explicit wrapping.
func TestTransientSelfClassification(t *testing.T) {
	spec := testSpec(1)
	calls := 0
	rep, err := Run(spec, func(context.Context, Cell, *xrand.Rand) (int, error) {
		calls++
		if calls < 3 {
			return 0, &selfTransient{ok: true}
		}
		return 5, nil
	}, Options[int]{MaxRetries: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", rep.Results[0].Attempts)
	}
	// A self-declared permanent error must not be retried.
	calls = 0
	_, err = Run(spec, func(context.Context, Cell, *xrand.Rand) (int, error) {
		calls++
		return 0, &selfTransient{ok: false}
	}, Options[int]{MaxRetries: 5})
	if err == nil {
		t.Fatal("permanent self-classified error swallowed")
	}
	if calls != 1 {
		t.Fatalf("permanent error ran %d times, want 1", calls)
	}
}

// selfTransient mimics gpu.DeviceError's self-classification hook.
type selfTransient struct{ ok bool }

func (e *selfTransient) Error() string   { return "self-classified" }
func (e *selfTransient) Transient() bool { return e.ok }

// TestReporterQuarantineCounters: the final progress line carries the
// settled retried/quarantined/failed counts.
func TestReporterQuarantineCounters(t *testing.T) {
	spec := testSpec(20)
	var lines []string
	_, err := Run(spec, failingDeviceExec, Options[int]{
		Workers:    1,
		Breaker:    &BreakerOptions{Threshold: 3, Cooldown: 2},
		OnProgress: func(p Progress) { lines = append(lines, p.String()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no progress line emitted")
	}
	last := lines[len(lines)-1]
	for _, want := range []string{"5 quarantined", "5 FAILED", "done"} {
		if !strings.Contains(last, want) {
			t.Errorf("final line missing %q: %s", want, last)
		}
	}
}
