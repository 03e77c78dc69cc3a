package main

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// capture redirects stdout around fn and returns what was printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	out, err := readAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return out, runErr
}

func readAll(f *os.File) (string, error) {
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := f.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			if err.Error() == "EOF" {
				return sb.String(), nil
			}
			return sb.String(), nil
		}
	}
}

func TestNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing subcommand accepted")
	}
}

func TestUnknownSubcommand(t *testing.T) {
	if err := run([]string{"frobnicate"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

func TestHelp(t *testing.T) {
	if err := run([]string{"help"}); err != nil {
		t.Fatal(err)
	}
}

func TestSuiteDefault(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"suite"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"reversing po-loc", "Combined", "MP-relacq-nofence"} {
		if !strings.Contains(out, want) {
			t.Errorf("suite output missing %q", want)
		}
	}
}

func TestSuiteShow(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"suite", "-show", "CoRR,MP-relacq"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "atomicLoad(&x)") || !strings.Contains(out, "fence(release/acquire)") {
		t.Errorf("show output wrong:\n%s", out)
	}
	if err := run([]string{"suite", "-show", "bogus"}); err == nil {
		t.Error("bogus test name accepted")
	}
}

func TestSuiteExplainTemplatesAssignmentShader(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"suite", "-explain"}) })
	if err != nil || !strings.Contains(out, "hb cycle") {
		t.Errorf("explain failed: %v\n%s", err, out)
	}
	out, err = capture(t, func() error { return run([]string{"suite", "-templates"}) })
	if err != nil || !strings.Contains(out, "Mutator 1") {
		t.Errorf("templates failed: %v", err)
	}
	out, err = capture(t, func() error { return run([]string{"suite", "-assignment"}) })
	if err != nil || !strings.Contains(out, "PTE assignment") {
		t.Errorf("assignment failed: %v", err)
	}
	out, err = capture(t, func() error { return run([]string{"suite", "-shader", "MP"}) })
	if err != nil || !strings.Contains(out, "@compute") {
		t.Errorf("shader failed: %v\n%s", err, out)
	}
	if err := run([]string{"suite", "-shader", "bogus"}); err == nil {
		t.Error("bogus shader name accepted")
	}
}

func TestDevices(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"devices"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "GeForce RTX 2080") {
		t.Errorf("devices output wrong:\n%s", out)
	}
}

func TestRunCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"run", "-test", "MP", "-device", "AMD", "-iters", "3",
			"-workgroups", "4", "-wgsize", "8"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MP on AMD", "target", "outcomes:"} {
		if !strings.Contains(out, want) {
			t.Errorf("run output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCommandErrors(t *testing.T) {
	if err := run([]string{"run", "-test", "bogus"}); err == nil {
		t.Error("bogus test accepted")
	}
	if err := run([]string{"run", "-test", "MP", "-device", "bogus"}); err == nil {
		t.Error("bogus device accepted")
	}
	if err := run([]string{"run", "-test", "MP", "-env", "bogus"}); err == nil {
		t.Error("bogus env accepted")
	}
}

func TestConformanceCommandFindsBug(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"conformance", "-device", "AMD", "-fence-bug", "-iters", "6"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "MP-relacq") || !strings.Contains(out, "VIOLATED") {
		t.Errorf("conformance did not catch the fence bug:\n%s", out)
	}
	if !strings.Contains(out, "FAILED") {
		t.Errorf("missing failure summary:\n%s", out)
	}
}

// TestConformanceCommand: the Intel coherence defect is caught by CoRR
// and explained as a happens-before cycle, a conformant M1 passes all
// 20 tests, and an unknown device is a configuration error (exit 1).
func TestConformanceCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"conformance", "-device", "Intel", "-coherence-bug", "-iters", "6"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out, "\n")
	corr := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(strings.TrimSpace(l), "CoRR ") })
	if corr < 0 || corr+2 >= len(lines) || !strings.Contains(lines[corr], "VIOLATED") {
		t.Fatalf("CoRR not reported violated on the coherence-defective Intel:\n%s", out)
	}
	if cycle := lines[corr+2]; !strings.Contains(cycle, "cycle:") || !strings.Contains(cycle, "-po-loc->") {
		t.Errorf("CoRR violation lacks its happens-before cycle: %q", cycle)
	}

	out, err = capture(t, func() error { return run([]string{"conformance", "-device", "M1", "-iters", "6"}) })
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out, " ok\n"); n != 20 || !strings.Contains(out, "all conformance tests passed") {
		t.Errorf("conformant M1: %d of 20 tests ok:\n%s", n, out)
	}

	err = run([]string{"conformance", "-device", "NoSuchGPU", "-iters", "1"})
	if code := exitCode(err); err == nil || code != 1 {
		t.Errorf("unknown device: err %v, exit %d, want exit 1", err, code)
	}
}

func TestCampaignConformanceCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"campaign", "-kind", "conformance", "-devices", "AMD,Intel",
			"-iters", "4", "-parallel", "4", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"AMD", "Intel", "fleet conforms"} {
		if !strings.Contains(out, want) {
			t.Errorf("campaign output missing %q:\n%s", want, out)
		}
	}
	// A fleet-wide injected driver bug is caught and explained.
	out, err = capture(t, func() error {
		return run([]string{"campaign", "-kind", "conformance", "-devices", "AMD",
			"-iters", "6", "-parallel", "2", "-fence-bug", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "MP-relacq") || !strings.Contains(out, "violation(s) across the fleet") {
		t.Errorf("fleet campaign missed the fence bug:\n%s", out)
	}
}

func TestCampaignEvaluateCommand(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "eval.ckpt")
	args := []string{"campaign", "-kind", "evaluate", "-devices", "AMD",
		"-envs", "pte,site", "-iters", "2", "-parallel", "4",
		"-checkpoint", ckpt, "-quiet"}
	out, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mutation score") || !strings.Contains(out, "killed across 2 environments") {
		t.Errorf("evaluate output wrong:\n%s", out)
	}
	// Resume replays the finished checkpoint and reproduces the result.
	resumed, err := capture(t, func() error { return run(append(args, "-resume")) })
	if err != nil {
		t.Fatal(err)
	}
	if resumed != out {
		t.Errorf("resumed campaign differs:\n%s\nvs\n%s", resumed, out)
	}
}

func TestCampaignCommandErrors(t *testing.T) {
	if err := run([]string{"campaign", "-kind", "bogus"}); err == nil {
		t.Error("bogus kind accepted")
	}
	if err := run([]string{"campaign", "-devices", "bogus", "-quiet"}); err == nil {
		t.Error("bogus device accepted")
	}
	if err := run([]string{"campaign", "-envs", "bogus", "-quiet"}); err == nil {
		t.Error("bogus env accepted")
	}
}

func TestTunePipelineParallelMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	base := []string{"tune", "-envs", "2", "-site-iters", "4", "-pte-iters", "2",
		"-devices", "AMD,Intel", "-quiet"}
	serialPath := filepath.Join(dir, "serial.json")
	parallelPath := filepath.Join(dir, "parallel.json")
	if _, err := capture(t, func() error {
		return run(append(base, "-out", serialPath, "-parallel", "1"))
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func() error {
		return run(append(base, "-out", parallelPath, "-parallel", "8"))
	}); err != nil {
		t.Fatal(err)
	}
	serial, err := os.ReadFile(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := os.ReadFile(parallelPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(serial) != string(parallel) {
		t.Fatal("tune -parallel 8 dataset is not byte-identical to -parallel 1")
	}
}

func TestTuneResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tuning.json")
	base := []string{"tune", "-out", path, "-envs", "1", "-site-iters", "2",
		"-pte-iters", "1", "-devices", "AMD", "-quiet"}
	// First run with -resume creates <out>.ckpt by default.
	if _, err := capture(t, func() error { return run(append(base, "-resume")) }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".ckpt"); err != nil {
		t.Fatalf("default checkpoint not created: %v", err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Second resumed run replays everything and writes the same dataset.
	if _, err := capture(t, func() error { return run(append(base, "-resume")) }); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatal("resumed tune dataset differs")
	}
}

func TestTuneAnalyzeCTSPipeline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tuning.json")
	out, err := capture(t, func() error {
		return run([]string{"tune", "-out", path, "-envs", "2",
			"-site-iters", "4", "-pte-iters", "2",
			"-devices", "AMD,Intel", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wrote") || !strings.Contains(out, "all mutators") {
		t.Errorf("tune output wrong:\n%s", out)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}

	out, err = capture(t, func() error {
		return run([]string{"analyze", "-action", "mutation-score", "-stats", path})
	})
	if err != nil || !strings.Contains(out, "SITE-Baseline") {
		t.Errorf("mutation-score failed: %v", err)
	}

	out, err = capture(t, func() error {
		return run([]string{"analyze", "-action", "merge", "-stats", path,
			"-rep", "95", "-budget", "0.25"})
	})
	if err != nil || !strings.Contains(out, "mutation score") {
		t.Errorf("merge failed: %v\n%s", err, out)
	}

	out, err = capture(t, func() error {
		return run([]string{"analyze", "-action", "merge-sweep", "-stats", path})
	})
	if err != nil || !strings.Contains(out, "99.999%") {
		t.Errorf("merge-sweep failed: %v", err)
	}

	out, err = capture(t, func() error {
		return run([]string{"cts", "-stats", path, "-rep", "95", "-budget", "0.125"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CTS plan", "total reproducibility", "mutation score"} {
		if !strings.Contains(out, want) {
			t.Errorf("cts output missing %q:\n%s", want, out)
		}
	}
}

func TestCorrelateCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("correlation study is slow")
	}
	out, err := capture(t, func() error {
		return run([]string{"correlate", "-envs", "6", "-iters", "2", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Intel/CoRR", "AMD/MP-relacq", "NVIDIA/MP-CO", "PCC"} {
		if !strings.Contains(out, want) {
			t.Errorf("correlation output missing %q:\n%s", want, out)
		}
	}
}

// TestCorrelateHasNoDevicesFlag checks that correlate, whose bug cases
// fix their platforms, does not offer -devices: its usage does not list
// the flag, and passing it fails at flag parsing, before any spec is
// built.
func TestCorrelateHasNoDevicesFlag(t *testing.T) {
	usage, err := captureStderr(t, func() error { return run([]string{"correlate", "-h"}) })
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("correlate -h: %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(usage, "-envs") || strings.Contains(usage, "-devices") {
		t.Errorf("correlate -h should list -envs and not -devices:\n%s", usage)
	}
	_, err = captureStderr(t, func() error { return run([]string{"correlate", "-devices", "AMD"}) })
	if err == nil || err.Error() != "flag provided but not defined: -devices" {
		t.Fatalf("correlate -devices AMD: %v, want the flag parser's undefined-flag error", err)
	}
	if code := exitCode(err); code != 1 {
		t.Errorf("correlate -devices AMD exit = %d, want 1", code)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if err := run([]string{"analyze", "-action", "bogus"}); err == nil {
		t.Error("bogus action accepted")
	}
	if err := run([]string{"analyze", "-action", "mutation-score", "-stats", "/no/such/file.json"}); err == nil {
		t.Error("missing dataset accepted")
	}
	if err := run([]string{"cts", "-stats", "/no/such/file.json"}); err == nil {
		t.Error("missing dataset accepted by cts")
	}
}

func TestSuiteExportAndRunFile(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, func() error { return run([]string{"suite", "-export", dir}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wrote 52 .litmus files") {
		t.Fatalf("export output: %s", out)
	}
	// Run one exported file end to end.
	out, err = capture(t, func() error {
		return run([]string{"run", "-file", filepath.Join(dir, "MP.litmus"),
			"-device", "AMD", "-iters", "3", "-workgroups", "4", "-wgsize", "8"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "MP on AMD") {
		t.Fatalf("run -file output: %s", out)
	}
	if err := run([]string{"run", "-file", "/no/such/file.litmus"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestOptimizeCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"optimize", "-test", "MP", "-device", "AMD",
			"-explore", "3", "-refine", "2", "-iters", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "optimized environment") || !strings.Contains(out, "kills/s") {
		t.Fatalf("optimize output: %s", out)
	}
	if err := run([]string{"optimize", "-test", "bogus"}); err == nil {
		t.Error("bogus test accepted")
	}
}

func TestTraceCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"trace", "-test", "MP-relacq", "-device", "AMD", "-limit", "10"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"traced MP-relacq", "issue", "complete", "trace verification passed"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
	if err := run([]string{"trace", "-test", "bogus"}); err == nil {
		t.Error("bogus test accepted")
	}
}

func TestSuiteDotCommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"suite", "-dot", "MP-relacq"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "po;sw;po") {
		t.Errorf("dot output wrong:\n%s", out)
	}
	if err := run([]string{"suite", "-dot", "bogus"}); err == nil {
		t.Error("bogus dot name accepted")
	}
}

// TestFlagValidationFailsFast: flag mistakes — unknown kind, device or
// environment preset, a repeated device, out-of-range fault parameters, negative retries,
// cell timeouts or deadlines, unwritable output or profile paths —
// must be rejected with exit 1 before any campaign
// work starts. Each case carries an enormous iteration count, so a
// validation that only triggers after the campaign begins would blow
// the elapsed bound; and no artifact may appear at -out.
func TestFlagValidationFailsFast(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "report.json")
	noDir := filepath.Join(dir, "no-such-dir", "x")
	cases := [][]string{
		{"campaign", "-kind", "bogus", "-iters", "1000000", "-out", out, "-quiet"},
		{"campaign", "-kind", "tune", "-devices", "AMD", "-out", out, "-quiet"},
		{"campaign", "-kind", "correlate", "-out", out, "-quiet"},
		{"correlate", "-envs", "0", "-iters", "1000000", "-out", out, "-quiet"},
		{"campaign", "-devices", "NoSuchGPU", "-iters", "1000000", "-out", out, "-quiet"},
		{"campaign", "-devices", "AMD,Intel,AMD", "-iters", "1000000", "-out", out, "-quiet"},
		{"campaign", "-kind", "evaluate", "-devices", "AMD,AMD", "-iters", "1000000", "-checkpoint", filepath.Join(dir, "x.ckpt"), "-out", out, "-quiet"},
		{"tune", "-devices", "AMD,AMD", "-site-iters", "1000000", "-out", out, "-quiet"},
		{"campaign", "-envs", "warp9", "-iters", "1000000", "-out", out, "-quiet"},
		{"campaign", "-iters", "0", "-out", out, "-quiet"},
		{"campaign", "-faults", "-fault-rate", "1.5", "-iters", "1000000", "-out", out, "-quiet"},
		{"campaign", "-cpuprofile", noDir, "-iters", "1000000", "-out", out, "-quiet"},
		{"campaign", "-memprofile", noDir, "-iters", "1000000", "-out", out, "-quiet"},
		{"campaign", "-out", noDir, "-iters", "1000000", "-quiet"},
		{"tune", "-devices", "NoSuchGPU", "-site-iters", "1000000", "-out", out, "-quiet"},
		{"tune", "-envs", "0", "-out", out, "-quiet"},
		{"tune", "-memprofile", noDir, "-site-iters", "1000000", "-out", out, "-quiet"},
		{"tune", "-out", noDir, "-site-iters", "1000000", "-quiet"},
		{"campaign", "-retries", "-1", "-iters", "1000000", "-out", out, "-quiet"},
		{"campaign", "-cell-timeout", "-1ns", "-iters", "1000000", "-out", out, "-quiet"},
		{"campaign", "-deadline", "-1s", "-iters", "1000000", "-out", out, "-quiet"},
		{"tune", "-retries", "-1", "-site-iters", "1000000", "-out", out, "-quiet"},
		{"tune", "-cell-timeout", "-1s", "-site-iters", "1000000", "-out", out, "-quiet"},
		{"tune", "-deadline", "-1ns", "-site-iters", "1000000", "-out", out, "-quiet"},
	}
	for _, args := range cases {
		start := time.Now()
		err := run(args)
		if err == nil {
			t.Errorf("%v: accepted", args)
			continue
		}
		if code := exitCode(err); code != 1 {
			t.Errorf("%v: exit %d (%v), want 1", args, code, err)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Errorf("%v: rejected only after %v — validation ran after campaign work started", args, el)
		}
		if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
			t.Errorf("%v: artifact written despite fatal flag error", args)
		}
	}
}

// TestServeVerbDrain: the serve verb boots the campaign service and a
// context cancellation — the CLI signal path — drains gracefully and
// exits 130, like the campaign and tune verbs.
func TestServeVerbDrain(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- dispatch(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-state", state, "-quiet"})
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(state, "jobs")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never created its state directory")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if exitCode(err) != 130 {
			t.Fatalf("serve exit = %d (%v), want 130", exitCode(err), err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not drain after cancellation")
	}
}

// TestServeVerbErrors: unusable flags fail fast with exit 1.
func TestServeVerbErrors(t *testing.T) {
	dir := t.TempDir()
	occupied := filepath.Join(dir, "occupied")
	if err := os.WriteFile(occupied, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"serve", "-addr", "127.0.0.1:0", "-state", occupied, "-quiet"},
		{"serve", "-addr", "127.0.0.1:notaport", "-state", filepath.Join(dir, "s"), "-quiet"},
	} {
		err := run(args)
		if err == nil {
			t.Errorf("%v: accepted", args)
			continue
		}
		if code := exitCode(err); code != 1 {
			t.Errorf("%v: exit %d (%v), want 1", args, code, err)
		}
	}
}

// TestVersionVerb: the version verb prints the resolved build identity
// — the same string /healthz and mcmutants_build_info expose — and
// never fails, stamped or not.
func TestVersionVerb(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"version"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "mcmutants ") || !strings.Contains(out, "go1.") {
		t.Errorf("version output %q lacks name or toolchain", out)
	}
}
