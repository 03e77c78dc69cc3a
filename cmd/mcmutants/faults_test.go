package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodeMapping: partial failures exit 2, even wrapped; plain
// errors exit 1.
func TestExitCodeMapping(t *testing.T) {
	if got := exitCode(&partialFailure{msg: "degraded"}); got != 2 {
		t.Fatalf("partialFailure exit code = %d, want 2", got)
	}
	wrapped := fmt.Errorf("campaign: %w", &partialFailure{msg: "degraded"})
	if got := exitCode(wrapped); got != 2 {
		t.Fatalf("wrapped partialFailure exit code = %d, want 2", got)
	}
	if got := exitCode(errors.New("boom")); got != 1 {
		t.Fatalf("plain error exit code = %d, want 1", got)
	}
}

// TestCampaignFaultInjection: a conformance campaign on a faulty fleet
// completes on the surviving devices, reports every cell that produced
// no data, surfaces breaker health, and signals degraded completion —
// identically at every worker count.
func TestCampaignFaultInjection(t *testing.T) {
	campaign := func(parallel string) (string, error) {
		return capture(t, func() error {
			return run([]string{"campaign", "-kind", "conformance", "-devices", "AMD,Intel",
				"-iters", "4", "-parallel", parallel, "-quiet",
				"-faults", "-fault-rate", "0.4"})
		})
	}
	out, err := campaign("4")
	if err == nil {
		t.Fatal("40% fault rate completed without degradation")
	}
	var pf *partialFailure
	if !errors.As(err, &pf) {
		t.Fatalf("degraded campaign returned %T (%v), want partialFailure", err, err)
	}
	if exitCode(err) != 2 {
		t.Fatalf("degraded campaign exit code = %d, want 2", exitCode(err))
	}
	if !strings.Contains(err.Error(), "produced no data") {
		t.Fatalf("unhelpful degradation message: %v", err)
	}
	for _, want := range []string{"NO DATA", "quarantined", "ran clean"} {
		if !strings.Contains(out, want) {
			t.Errorf("faulty campaign output missing %q:\n%s", want, out)
		}
	}
	// Cells without data are not evidence of conformance.
	if strings.Contains(out, "fleet conforms") {
		t.Errorf("faulty campaign claims the fleet conforms:\n%s", out)
	}
	// The same chaotic campaign is byte-identical at any worker count.
	for _, parallel := range []string{"1", "8"} {
		other, err2 := campaign(parallel)
		if err2 == nil || err2.Error() != err.Error() {
			t.Fatalf("parallel=%s: error %v, want %v", parallel, err2, err)
		}
		if other != out {
			t.Fatalf("parallel=%s output differs:\n%s\nvs\n%s", parallel, other, out)
		}
	}
}

// TestCampaignFaultFreeUnchanged: without -faults, the same campaign
// still succeeds cleanly — the fault path is strictly opt-in.
func TestCampaignFaultFreeUnchanged(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"campaign", "-kind", "conformance", "-devices", "AMD,Intel",
			"-iters", "4", "-parallel", "4", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fleet conforms") {
		t.Fatalf("fault-free campaign output:\n%s", out)
	}
	if strings.Contains(out, "NO DATA") || strings.Contains(out, "quarantined") {
		t.Fatalf("fault-free campaign shows degradation:\n%s", out)
	}
}

// TestTuneFaultInjection: a tuning sweep under fault injection writes a
// dataset whose dropped cells are recorded (not silently skipped),
// reports the degradation, and keeps the byte-identity guarantee
// across worker counts.
func TestTuneFaultInjection(t *testing.T) {
	dir := t.TempDir()
	tune := func(path, parallel string) (string, error) {
		return capture(t, func() error {
			return run([]string{"tune", "-out", path, "-envs", "2",
				"-site-iters", "4", "-pte-iters", "2", "-devices", "AMD,Intel",
				"-parallel", parallel, "-quiet", "-faults", "-fault-rate", "0.3"})
		})
	}
	serialPath := filepath.Join(dir, "serial.json")
	out, err := tune(serialPath, "1")
	if err == nil {
		t.Fatal("30% fault rate dropped nothing")
	}
	var pf *partialFailure
	if !errors.As(err, &pf) {
		t.Fatalf("degraded tune returned %T (%v), want partialFailure", err, err)
	}
	if !strings.Contains(out, "dropped") {
		t.Fatalf("tune output missing dropped summary:\n%s", out)
	}
	data, err2 := os.ReadFile(serialPath)
	if err2 != nil {
		t.Fatalf("degraded tune did not write its dataset: %v", err2)
	}
	if !strings.Contains(string(data), `"dropped"`) || !strings.Contains(string(data), `"faults"`) {
		t.Fatal("dataset missing dropped records or fault config")
	}
	parallelPath := filepath.Join(dir, "parallel.json")
	if _, err := tune(parallelPath, "8"); err == nil {
		t.Fatal("parallel chaotic tune dropped nothing")
	}
	parallelData, err2 := os.ReadFile(parallelPath)
	if err2 != nil {
		t.Fatal(err2)
	}
	if string(data) != string(parallelData) {
		t.Fatal("chaotic tune -parallel 8 dataset is not byte-identical to -parallel 1")
	}
}

// TestWatchdogFlagWithoutFaults: -watchdog alone keeps the run
// fault-free (no injection, no breaker) while still bounding kernels.
func TestWatchdogFlagWithoutFaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "watchdog.json")
	_, err := capture(t, func() error {
		return run([]string{"tune", "-out", path, "-envs", "1",
			"-site-iters", "2", "-pte-iters", "1", "-devices", "AMD",
			"-quiet", "-watchdog", "1000000000"})
	})
	if err != nil {
		t.Fatalf("generous watchdog degraded a healthy run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"dropped"`) {
		t.Fatal("watchdog-only run dropped cells")
	}
}
