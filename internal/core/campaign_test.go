package core

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/wgsl"
)

func fleet() []Platform {
	return []Platform{
		{Device: "AMD", Driver: wgsl.DriverFenceDropping},
		{Device: "Intel", Bugs: gpu.Bugs{CoherenceRR: true, CoherenceRRProb: 0.4, CoherenceRRPressure: 2}},
		{Device: "NVIDIA"},
	}
}

// TestFleetConformanceAcrossPlatforms runs one campaign over a mixed
// fleet: each platform's defects must surface in its own report and
// nowhere else.
func TestFleetConformanceAcrossPlatforms(t *testing.T) {
	s := study(t)
	reports, err := s.CheckFleetConformanceCtx(context.Background(), fleet(), testEnv(), 10, 11, CampaignOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("%d reports, want 3", len(reports))
	}
	for i, rep := range reports {
		if rep.Platform.Device != fleet()[i].Device {
			t.Fatalf("report %d is for %s", i, rep.Platform.Device)
		}
		if len(rep.Findings) != 20 {
			t.Fatalf("%s: %d findings, want 20", rep.Platform.Device, len(rep.Findings))
		}
	}
	wantBug := func(rep *ConformanceReport, test string) {
		t.Helper()
		for _, f := range rep.Buggy() {
			if f.Test == test {
				if f.Explanation == "" {
					t.Errorf("%s: %s finding lacks explanation", rep.Platform.Device, test)
				}
				return
			}
		}
		t.Errorf("%s: %s not among violations", rep.Platform.Device, test)
	}
	wantBug(reports[0], "MP-relacq")
	wantBug(reports[1], "CoRR")
	if buggy := reports[2].Buggy(); len(buggy) != 0 {
		t.Errorf("clean NVIDIA platform reported bugs: %+v", buggy)
	}
}

// TestFleetConformanceDeterministic asserts worker count cannot change
// what the fleet campaign finds.
func TestFleetConformanceDeterministic(t *testing.T) {
	s := study(t)
	serial, err := s.CheckFleetConformanceCtx(context.Background(), fleet(), testEnv(), 4, 23, CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := s.CheckFleetConformanceCtx(context.Background(), fleet(), testEnv(), 4, 23, CampaignOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for pi := range serial {
		for fi := range serial[pi].Findings {
			if serial[pi].Findings[fi] != parallel[pi].Findings[fi] {
				t.Fatalf("%s finding %d differs:\n%+v\n%+v", serial[pi].Platform.Device, fi,
					serial[pi].Findings[fi], parallel[pi].Findings[fi])
			}
		}
	}
}

// TestEvaluateEnvironmentsMergesAcrossEnvs checks the multi-environment
// mutation score: per-mutant results are merged with Result.Merge, so
// the ensemble's counts are the sums and a kill anywhere counts.
func TestEvaluateEnvironmentsMergesAcrossEnvs(t *testing.T) {
	s := study(t)
	weak := harness.SITEBaseline()
	envs := []harness.Params{weak, testEnv()}
	single, err := s.EvaluateEnvironmentsCtx(context.Background(), Platform{Device: "AMD"}, []harness.Params{testEnv()}, 3, 42, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := s.EvaluateEnvironmentsCtx(context.Background(), Platform{Device: "AMD"}, envs, 3, 42, CampaignOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Total != 32 || len(multi.PerMutant) != 32 {
		t.Fatalf("Total=%d PerMutant=%d", multi.Total, len(multi.PerMutant))
	}
	// The ensemble includes testEnv's cells under the same campaign
	// seed... not the same RNG streams as the single-env run, so compare
	// structurally: merged iteration counts double the single run's.
	for i, res := range multi.PerMutant {
		if res.Iterations != 6 {
			t.Fatalf("mutant %d: %d iterations after merging 2 envs of 3", i, res.Iterations)
		}
		if res.Hist == nil || res.Hist.Total() != res.Instances {
			t.Fatalf("mutant %d: histogram out of sync with instances", i)
		}
		if res.TargetCount != res.Hist.TargetCount() {
			t.Fatalf("mutant %d: TargetCount diverged from histogram", i)
		}
	}
	// Adding environments can only help: the ensemble kills at least as
	// many mutants as a single equally-seeded environment would find on
	// its own is not directly comparable, but the stressed env alone
	// guarantees kills, so the ensemble must kill something too.
	if single.Killed == 0 || multi.Killed == 0 {
		t.Fatalf("killed: single=%d multi=%d", single.Killed, multi.Killed)
	}
	if multi.AvgDeathRate <= 0 {
		t.Fatal("zero ensemble death rate")
	}
}

// TestEvaluateEnvironmentsDeterministic: same campaign, different
// worker counts, identical merged scores.
func TestEvaluateEnvironmentsDeterministic(t *testing.T) {
	s := study(t)
	envs := []harness.Params{harness.SITEBaseline(), testEnv()}
	a, err := s.EvaluateEnvironmentsCtx(context.Background(), Platform{Device: "Intel"}, envs, 2, 9, CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.EvaluateEnvironmentsCtx(context.Background(), Platform{Device: "Intel"}, envs, 2, 9, CampaignOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Killed != b.Killed || a.Total != b.Total || a.AvgDeathRate != b.AvgDeathRate {
		t.Fatalf("scores differ: %+v vs %+v", a, b)
	}
	for i := range a.PerMutant {
		ra, rb := a.PerMutant[i], b.PerMutant[i]
		if ra.TestName != rb.TestName || ra.TargetCount != rb.TargetCount ||
			ra.Violations != rb.Violations || ra.SimSeconds != rb.SimSeconds {
			t.Fatalf("mutant %d diverged: %+v vs %+v", i, ra, rb)
		}
	}
}

// TestFleetConformanceCheckpointResume interrupts a fleet campaign and
// resumes it; the reports must match an uninterrupted run.
func TestFleetConformanceCheckpointResume(t *testing.T) {
	s := study(t)
	platforms := fleet()[:2]
	clean, err := s.CheckFleetConformanceCtx(context.Background(), platforms, testEnv(), 3, 5, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	// First pass writes the checkpoint to completion; second pass must
	// replay every cell without executing any.
	if _, err := s.CheckFleetConformanceCtx(context.Background(), platforms, testEnv(), 3, 5, CampaignOptions{Workers: 2, CheckpointPath: ckpt}); err != nil {
		t.Fatal(err)
	}
	executed := 0
	resumed, err := s.CheckFleetConformanceCtx(context.Background(), platforms, testEnv(), 3, 5, CampaignOptions{
		Workers: 2, CheckpointPath: ckpt, Resume: true,
		Progress: func(string) { executed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if executed != 0 {
		t.Fatalf("resume re-executed %d cells", executed)
	}
	for pi := range clean {
		for fi := range clean[pi].Findings {
			if clean[pi].Findings[fi] != resumed[pi].Findings[fi] {
				t.Fatalf("replayed finding differs: %+v vs %+v",
					clean[pi].Findings[fi], resumed[pi].Findings[fi])
			}
		}
	}
	// A different seed must refuse the stale checkpoint.
	_, err = s.CheckFleetConformanceCtx(context.Background(), platforms, testEnv(), 3, 6, CampaignOptions{CheckpointPath: ckpt, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "different campaign spec") {
		t.Fatalf("stale checkpoint accepted: %v", err)
	}
}
