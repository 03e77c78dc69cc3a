package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tuning"
)

// exit130 asserts err carries the interrupted-run exit code.
func exit130(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("interrupted run returned no error")
	}
	var ec interface{ ExitCode() int }
	if !errors.As(err, &ec) {
		t.Fatalf("interrupted run error carries no exit code: %v", err)
	}
	if ec.ExitCode() != 130 {
		t.Fatalf("interrupted run exit code = %d, want 130: %v", ec.ExitCode(), err)
	}
}

// TestTuneDeadlineInterruptsAndResumes: an expired -deadline drains the
// tune campaign — exit 130, resume hint printed, checkpoint and partial
// dataset on disk — and resuming without the deadline produces a
// dataset byte-identical to a run that was never interrupted.
func TestTuneDeadlineInterruptsAndResumes(t *testing.T) {
	dir := t.TempDir()
	base := []string{"tune", "-envs", "1", "-site-iters", "2", "-pte-iters", "1",
		"-devices", "AMD", "-quiet"}

	cleanPath := filepath.Join(dir, "clean.json")
	if _, err := capture(t, func() error {
		return run(append(base, "-out", cleanPath))
	}); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(cleanPath)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "tuning.json")
	out, runErr := capture(t, func() error {
		return run(append(base, "-out", path, "-resume", "-deadline", "1ns"))
	})
	exit130(t, runErr)
	if !strings.Contains(runErr.Error(), "-resume") {
		t.Errorf("interrupted tune error lacks a resume hint: %v", runErr)
	}
	if !strings.Contains(out, "interrupted") {
		t.Errorf("interrupted tune output does not say so:\n%s", out)
	}
	if _, err := os.Stat(path + ".ckpt"); err != nil {
		t.Fatalf("interrupted tune left no checkpoint: %v", err)
	}
	partial, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("interrupted tune left no partial dataset: %v", err)
	}
	if !strings.Contains(string(partial), `"interrupted": true`) {
		t.Error("partial dataset not marked interrupted")
	}

	if _, err := capture(t, func() error {
		return run(append(base, "-out", path, "-resume"))
	}); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(resumed) != string(clean) {
		t.Fatal("resumed dataset is not byte-identical to the uninterrupted run")
	}
}

// TestCampaignDeadlineInterrupts: both campaign kinds follow the same
// drain path under an expired -deadline.
func TestCampaignDeadlineInterrupts(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"campaign", "-kind", "conformance", "-devices", "AMD",
			"-iters", "4", "-parallel", "2", "-deadline", "1ns", "-quiet"})
	})
	exit130(t, err)
	if !strings.Contains(out, "interrupted") {
		t.Errorf("interrupted conformance output does not say so:\n%s", out)
	}

	out, err = capture(t, func() error {
		return run([]string{"campaign", "-kind", "evaluate", "-devices", "AMD",
			"-envs", "pte", "-iters", "2", "-parallel", "2", "-deadline", "1ns", "-quiet"})
	})
	exit130(t, err)
	if !strings.Contains(out, "interrupted") {
		t.Errorf("interrupted evaluate output does not say so:\n%s", out)
	}
}

// TestCampaignDeadlineResumesByteIdentical: a conformance campaign
// interrupted by -deadline resumes from its checkpoint and reports
// exactly what an uninterrupted campaign reports.
func TestCampaignDeadlineResumesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	args := func(extra ...string) []string {
		return append([]string{"campaign", "-kind", "conformance", "-devices", "AMD,Intel",
			"-iters", "4", "-parallel", "4", "-quiet"}, extra...)
	}
	clean, err := capture(t, func() error { return run(args()) })
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(dir, "conf.ckpt")
	_, runErr := capture(t, func() error {
		return run(args("-checkpoint", ckpt, "-deadline", "1ns"))
	})
	exit130(t, runErr)

	resumed, err := capture(t, func() error {
		return run(args("-checkpoint", ckpt, "-resume"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed != clean {
		t.Fatalf("resumed campaign output differs:\n%s\nvs\n%s", resumed, clean)
	}
}

// TestCellTimeoutFlagAccepted: a generous -cell-timeout changes nothing
// about a healthy run.
func TestCellTimeoutFlagAccepted(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"campaign", "-kind", "conformance", "-devices", "AMD",
			"-iters", "4", "-parallel", "2", "-cell-timeout", "1h", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fleet conforms") {
		t.Errorf("bounded healthy campaign did not conform:\n%s", out)
	}
}

// TestCellTimeoutFailsCellsNotCampaign: an expiring -cell-timeout is
// an ordinary per-cell failure for every kind: the campaign completes
// degraded (exit 2) and publishes its artifact. Every conformance and
// evaluate cell carries an error and no interruption; the tune study
// resolves every cell, the expired ones in its dropped list. (1ns
// rounds up to the spec's 1ms; 40 iterations take far longer, except
// on the stress-free SITE baseline.)
func TestCellTimeoutFailsCellsNotCampaign(t *testing.T) {
	for _, kind := range []string{"conformance", "evaluate", "tune"} {
		t.Run(kind, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "report.json")
			args := []string{"campaign", "-kind", kind, "-envs", "pte", "-iters", "40"}
			if kind == "tune" {
				args = []string{"tune", "-envs", "1", "-site-iters", "40", "-pte-iters", "40"}
			}
			_, err := capture(t, func() error {
				return run(append(args, "-devices", "AMD", "-cell-timeout", "1ns", "-quiet", "-out", out))
			})
			if code := exitCode(err); code != 2 {
				t.Fatalf("exit %d (%v), want 2", code, err)
			}
			raw, err := os.ReadFile(out)
			if err != nil {
				t.Fatalf("no artifact published: %v", err)
			}
			if kind == "tune" {
				var ds tuning.Dataset
				if err := json.Unmarshal(raw, &ds); err != nil {
					t.Fatal(err)
				}
				// 4 families, 1 environment each, 1 device, 32 mutants.
				if ds.Interrupted || len(ds.Dropped) == 0 || len(ds.Records)+len(ds.Dropped) != 4*32 {
					t.Fatalf("interrupted %v, %d records, %d dropped; want every cell resolved and some dropped",
						ds.Interrupted, len(ds.Records), len(ds.Dropped))
				}
				return
			}
			var art core.CampaignArtifact
			if err := json.Unmarshal(raw, &art); err != nil {
				t.Fatal(err)
			}
			cells := 0
			for _, rep := range art.Conformance {
				for _, f := range rep.Findings {
					cells++
					if f.Error == "" || f.Interrupted {
						t.Errorf("%s: error %q, interrupted %v; want a timeout failure", f.Test, f.Error, f.Interrupted)
					}
				}
			}
			for _, e := range art.Evaluate {
				if e.Score.Interrupted {
					t.Errorf("%s: score marked interrupted", e.Device)
				}
				cells += len(e.Score.Failures)
				if len(e.Score.Failures) != len(e.Score.PerMutant) {
					t.Errorf("%s: %d failed cells, want all %d", e.Device, len(e.Score.Failures), len(e.Score.PerMutant))
				}
			}
			if cells == 0 {
				t.Fatal("report holds no cells")
			}
		})
	}
}
