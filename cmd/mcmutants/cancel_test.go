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
// dataset on disk — and resuming without the deadline, or from a
// checkpoint cut mid-study, produces a dataset byte-identical to a run
// that was never interrupted.
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

	// The finished run's checkpoint, cut to half its records, resumes
	// to the same dataset.
	ws := core.WorkSpec{Kind: "tune", Devices: []string{"AMD"}, Seed: 2023, TuneEnvs: 1, SiteIters: 2, PTEIters: 1}
	kept := halveCheckpoint(t, path+".ckpt", ws)
	if _, err := capture(t, func() error {
		return run(append(base, "-out", path, "-resume"))
	}); err != nil {
		t.Fatal(err)
	}
	if resumed, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if string(resumed) != string(clean) {
		t.Fatalf("dataset resumed from %d checkpointed cells is not byte-identical to the uninterrupted run", kept)
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

// TestCampaignDeadlineResumesByteIdentical: a campaign of any kind run
// through the shared flags and interrupted by -deadline resumes from
// its one checkpoint and publishes exactly the artifact an
// uninterrupted campaign publishes, and so does a checkpoint cut
// mid-campaign.
func TestCampaignDeadlineResumesByteIdentical(t *testing.T) {
	fleet := []string{"-devices", "AMD,Intel", "-envs", "pte", "-iters", "4"}
	for _, tc := range []struct {
		kind string
		args []string
		ws   core.WorkSpec
	}{
		{"conformance", append([]string{"campaign", "-kind", "conformance"}, fleet...),
			core.WorkSpec{Kind: "conformance", Devices: []string{"AMD", "Intel"}, Envs: []string{"pte"}, Iters: 4, Seed: 1}},
		{"evaluate", append([]string{"campaign", "-kind", "evaluate"}, fleet...),
			core.WorkSpec{Kind: "evaluate", Devices: []string{"AMD", "Intel"}, Envs: []string{"pte"}, Iters: 4, Seed: 1}},
		{"correlate", []string{"correlate", "-envs", "3", "-iters", "2"},
			core.WorkSpec{Kind: "correlate", TuneEnvs: 3, Iters: 2, Seed: 2023}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			dir := t.TempDir()
			artifact := func(name string, extra ...string) (string, error) {
				out := filepath.Join(dir, name)
				args := append(append([]string{}, tc.args...), append([]string{"-parallel", "4", "-quiet", "-out", out}, extra...)...)
				_, err := capture(t, func() error { return run(args) })
				raw, _ := os.ReadFile(out)
				return string(raw), err
			}
			clean, err := artifact("clean.json")
			if err != nil {
				t.Fatal(err)
			}

			ckpt := filepath.Join(dir, "campaign.ckpt")
			_, runErr := artifact("interrupted.json", "-checkpoint", ckpt, "-deadline", "1ns")
			exit130(t, runErr)

			resumed, err := artifact("resumed.json", "-checkpoint", ckpt, "-resume")
			if err != nil {
				t.Fatal(err)
			}
			if resumed != clean {
				t.Fatalf("resumed campaign artifact differs:\n%s\nvs\n%s", resumed, clean)
			}

			full := filepath.Join(dir, "full.ckpt")
			if _, err := artifact("full.json", "-checkpoint", full); err != nil {
				t.Fatal(err)
			}
			kept := halveCheckpoint(t, full, tc.ws)
			resumed, err = artifact("half.json", "-checkpoint", full, "-resume")
			if err != nil {
				t.Fatal(err)
			}
			if resumed != clean {
				t.Fatalf("campaign resumed from %d checkpointed cells differs:\n%s\nvs\n%s", kept, resumed, clean)
			}
		})
	}
}

// halveCheckpoint cuts a finished campaign's checkpoint at path to its
// header and half of its records, so a resume replays some cells and
// runs the rest, and returns how many records it kept. It fails unless
// some but not all of the cells ws plans are kept.
func halveCheckpoint(t *testing.T, path string, ws core.WorkSpec) int {
	t.Helper()
	st, err := core.NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	_, cells, err := st.PlanWorkSpec(ws)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	kept := (len(lines) - 1) / 2
	if kept <= 0 || kept >= cells {
		t.Fatalf("checkpoint of %d records keeps %d; want 0 < kept < %d cells", len(lines)-1, kept, cells)
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines[:1+kept], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	return kept
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
