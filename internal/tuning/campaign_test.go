package tuning

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/litmus"
	"repro/internal/mutation"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// campaignConfig is a small-but-nontrivial sweep shared by the
// campaign tests.
func campaignConfig() (Config, []*litmus.Test) {
	suite := mutation.MustGenerate()
	var tests []*litmus.Test
	for _, name := range []string{"CoRR-mutant", "MP", "SB"} {
		t, _ := suite.ByName(name)
		tests = append(tests, t)
	}
	cfg := SmallConfig()
	cfg.Environments = 2
	cfg.SITEIterations = 6
	cfg.PTEIterations = 2
	cfg.Devices = []string{"AMD", "Intel"}
	return cfg, tests
}

// datasetsIdentical asserts two datasets match record-for-record and
// byte-for-byte.
func datasetsIdentical(t *testing.T, a, b *Dataset, label string) {
	t.Helper()
	if len(a.Records) != len(b.Records) {
		t.Fatalf("%s: %d vs %d records", label, len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("%s: record %d differs:\n%+v\n%+v", label, i, a.Records[i], b.Records[i])
		}
	}
	var bufA, bufB bytes.Buffer
	if err := a.Save(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("%s: serialized datasets differ", label)
	}
}

// TestCampaignDeterministicAcrossWorkers is the scheduler's core
// guarantee at the tuning level: the same campaign at workers=1 and
// workers=8 produces identical mutation scores, death rates, and
// per-record counts — in fact a byte-identical dataset.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	cfg, tests := campaignConfig()
	serial, err := RunCampaign(cfg, tests, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunCampaign(cfg, tests, RunOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	datasetsIdentical(t, serial, parallel, "workers=1 vs workers=8")
	for _, fam := range []string{"SITE-Baseline", "SITE", "PTE-Baseline", "PTE"} {
		k1, t1 := serial.MutationScore(fam, "", "")
		k8, t8 := parallel.MutationScore(fam, "", "")
		if k1 != k8 || t1 != t8 {
			t.Fatalf("%s: mutation score %d/%d vs %d/%d", fam, k1, t1, k8, t8)
		}
		if serial.AvgDeathRate(fam, "", "") != parallel.AvgDeathRate(fam, "", "") {
			t.Fatalf("%s: death rates differ", fam)
		}
	}
}

// TestCampaignResumeMatchesCleanRun kills a campaign mid-way (a cell
// fails permanently under fail-fast), then resumes from the checkpoint
// and verifies the final dataset is identical to an uninterrupted run —
// with the already-done cells replayed, not re-executed.
func TestCampaignResumeMatchesCleanRun(t *testing.T) {
	cfg, tests := campaignConfig()
	clean, err := RunCampaign(cfg, tests, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "tune.ckpt")
	// Interrupted run: fail after some progress. We inject the failure
	// through the scheduler directly, reusing tuning's own campaign
	// builder so the spec (and manifest) matches RunCampaign's.
	spec, work, err := buildCampaign(&cfg, tests)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := sched.OpenCheckpoint(ckpt, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	killAfter := len(spec.Cells) / 3
	ran := 0
	exec := newWorkerExec(work, cfg.Faults)()
	_, err = sched.Run(spec, func(ctx context.Context, c sched.Cell, rng *xrand.Rand) (Measurement, error) {
		if ran++; ran > killAfter {
			return Measurement{}, fmt.Errorf("simulated kill")
		}
		return exec(ctx, c, rng)
	}, sched.Options[Measurement]{Workers: 1, Checkpoint: ck})
	if err == nil {
		t.Fatal("interrupted run succeeded")
	}
	ck.Close()

	// Resume through the public API; done cells must be skipped.
	executed := 0
	resumed, err := RunCampaign(cfg, tests, RunOptions{
		Workers:        4,
		CheckpointPath: ckpt,
		Resume:         true,
		Progress:       func(string) { executed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if executed != len(spec.Cells)-killAfter {
		t.Fatalf("resume executed %d cells, want %d", executed, len(spec.Cells)-killAfter)
	}
	datasetsIdentical(t, clean, resumed, "clean vs resumed")
}

// TestResumeCheckpointWithWholeRecords resumes a checkpoint captured
// from a build that recorded each cell's whole Record:
// testdata/parent-partial.ckpt is that build's checkpoint of this
// config (AMD, one environment per family, one iteration each),
// stopped after 5 of its 12 cells. Resuming must replay those 5, run
// the other 7, and produce the bytes of a clean run.
func TestResumeCheckpointWithWholeRecords(t *testing.T) {
	cfg, tests := campaignConfig()
	cfg.Environments = 1
	cfg.SITEIterations = 1
	cfg.PTEIterations = 1
	cfg.Devices = []string{"AMD"}
	clean, err := RunCampaign(cfg, tests, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "parent-partial.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "tune.ckpt")
	if err := os.WriteFile(ckpt, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	executed := 0
	resumed, err := RunCampaign(cfg, tests, RunOptions{
		Workers:        2,
		CheckpointPath: ckpt,
		Resume:         true,
		Progress:       func(string) { executed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(clean.Records) - 5; executed != want {
		t.Fatalf("resume executed %d cells, want %d", executed, want)
	}
	datasetsIdentical(t, clean, resumed, "clean vs resumed from whole-record checkpoint")
}

// TestCampaignResumeRejectsChangedConfig guards against silently mixing
// incompatible runs: a checkpoint written under one seed cannot seed a
// resume under another.
func TestCampaignResumeRejectsChangedConfig(t *testing.T) {
	cfg, tests := campaignConfig()
	cfg.Environments = 1
	cfg.SITEIterations = 2
	cfg.PTEIterations = 1
	cfg.Devices = []string{"AMD"}
	ckpt := filepath.Join(t.TempDir(), "tune.ckpt")
	if _, err := RunCampaign(cfg, tests, RunOptions{CheckpointPath: ckpt}); err != nil {
		t.Fatal(err)
	}
	cfg.Seed++
	_, err := RunCampaign(cfg, tests, RunOptions{CheckpointPath: ckpt, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "different campaign spec") {
		t.Fatalf("changed seed resumed against stale checkpoint: %v", err)
	}
	if _, err := RunCampaign(cfg, tests, RunOptions{Resume: true}); err == nil {
		t.Fatal("Resume without CheckpointPath accepted")
	}
}

// TestCampaignReporterStreams checks the progress line surfaces
// cells, instance rates and device utilization.
func TestCampaignReporterStreams(t *testing.T) {
	cfg, tests := campaignConfig()
	var lines []string
	_, err := RunCampaign(cfg, tests, RunOptions{
		Workers:    2,
		OnProgress: func(p sched.Progress) { lines = append(lines, p.String()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no report lines")
	}
	last := lines[len(lines)-1]
	for _, want := range []string{"tune:", "cells", "cells/s", "instances/s", "util", "AMD", "Intel", "done"} {
		if !strings.Contains(last, want) {
			t.Errorf("final report line missing %q: %s", want, last)
		}
	}
}

// TestCampaignRepeatByteIdentical runs the identical campaign twice in
// one process at a worker count that forces heavy runner-cache reuse
// (each worker funnels many cells through few cached Runners and
// Devices). Any state leaking between cells through that reused
// scratch — plan arrays, outcome arenas, fault counters — would break
// the byte-for-byte dataset equality asserted here.
func TestCampaignRepeatByteIdentical(t *testing.T) {
	cfg, tests := campaignConfig()
	first, err := RunCampaign(cfg, tests, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunCampaign(cfg, tests, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	datasetsIdentical(t, first, second, "repeat run")
}
