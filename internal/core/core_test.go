package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/mm"
	"repro/internal/tuning"
	"repro/internal/wgsl"
)

func study(t testing.TB) *Study {
	t.Helper()
	s, err := NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testEnv() harness.Params {
	p := harness.PTEBaseline(8, 16)
	p.MaxWorkgroups = p.TestingWorkgroups + 4
	p.MemStressPct = 100
	p.MemStressIters = 8
	p.PreStressPct = 80
	p.PreStressIters = 2
	p.MemStride = 2
	p.MemLocOffset = 1
	return p
}

func TestNewStudy(t *testing.T) {
	s := study(t)
	if len(s.Suite.Conformance) != 20 || len(s.Suite.Mutants) != 32 {
		t.Fatalf("suite sizes %d/%d", len(s.Suite.Conformance), len(s.Suite.Mutants))
	}
}

func TestEvaluateEnvironment(t *testing.T) {
	s := study(t)
	score, err := s.EvaluateEnvironmentsCtx(context.Background(), Platform{Device: "AMD"}, []harness.Params{testEnv()}, 3, 42, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if score.Total != 32 {
		t.Fatalf("Total = %d, want 32", score.Total)
	}
	if score.Killed == 0 {
		t.Fatal("stressed PTE killed nothing on AMD")
	}
	if score.AvgDeathRate <= 0 {
		t.Fatal("zero average death rate")
	}
	if s := score.Score(); s <= 0 || s > 1 {
		t.Fatalf("Score() = %v", s)
	}
	if len(score.PerMutant) != 32 {
		t.Fatalf("PerMutant has %d entries", len(score.PerMutant))
	}
}

func TestEvaluateEnvironmentUnknownDevice(t *testing.T) {
	s := study(t)
	if _, err := s.EvaluateEnvironmentsCtx(context.Background(), Platform{Device: "hal9000"}, []harness.Params{testEnv()}, 1, 1, CampaignOptions{}); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestCheckConformanceCleanPlatform(t *testing.T) {
	s := study(t)
	reps, err := s.CheckFleetConformanceCtx(context.Background(), []Platform{{Device: "AMD"}}, testEnv(), 2, 7, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := reps[0]
	if len(rep.Findings) != 20 {
		t.Fatalf("%d findings, want 20", len(rep.Findings))
	}
	if buggy := rep.Buggy(); len(buggy) != 0 {
		t.Fatalf("clean platform reported bugs: %+v", buggy)
	}
}

// TestCheckConformanceFindsInjectedBugs reproduces the paper's
// discoveries: each injected defect is caught by its conformance test
// and explained with an hb cycle.
func TestCheckConformanceFindsInjectedBugs(t *testing.T) {
	s := study(t)
	cases := []struct {
		name     string
		platform Platform
		wantTest string
	}{
		{
			name: "AMD fence-dropping driver",
			platform: Platform{
				Device: "AMD",
				Driver: wgsl.DriverFenceDropping,
			},
			wantTest: "MP-relacq",
		},
		{
			name: "Intel coherence",
			platform: Platform{
				Device: "Intel",
				Bugs: gpu.Bugs{
					CoherenceRR: true, CoherenceRRProb: 0.4, CoherenceRRPressure: 2,
				},
			},
			wantTest: "CoRR",
		},
	}
	for _, c := range cases {
		reps, err := s.CheckFleetConformanceCtx(context.Background(), []Platform{c.platform}, testEnv(), 10, 11, CampaignOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rep := reps[0]
		buggy := rep.Buggy()
		if len(buggy) == 0 {
			t.Errorf("%s: no violations found", c.name)
			continue
		}
		found := false
		for _, f := range buggy {
			if f.Test == c.wantTest {
				found = true
				if f.Explanation == "" {
					t.Errorf("%s: %s finding lacks an explanation", c.name, f.Test)
				}
				if f.Outcome == "" {
					t.Errorf("%s: %s finding lacks an outcome", c.name, f.Test)
				}
				if f.ViolationRate <= 0 {
					t.Errorf("%s: zero violation rate", c.name)
				}
			}
		}
		if !found {
			names := make([]string, 0, len(buggy))
			for _, f := range buggy {
				names = append(names, f.Test)
			}
			t.Errorf("%s: %s not among failing tests %v", c.name, c.wantTest, names)
		}
	}
}

func TestExplainViolationForms(t *testing.T) {
	corr := litmus.CoRR()
	// A genuine hb cycle.
	msg := explainViolation(corr, litmus.Outcome{Regs: []mm.Val{1, 0}, Final: []mm.Val{1}})
	if !strings.Contains(msg, "->") {
		t.Fatalf("cycle explanation missing edges: %q", msg)
	}
	// Memory corruption: final value 0 on a written location.
	coww := litmus.CoWW()
	msg = explainViolation(coww, litmus.Outcome{Final: []mm.Val{0}})
	if !strings.Contains(msg, "inconsistency") {
		t.Fatalf("corruption not reported: %q", msg)
	}
	// An allowed outcome (defensive path) explains nothing.
	msg = explainViolation(corr, litmus.Outcome{Regs: []mm.Val{0, 1}, Final: []mm.Val{1}})
	if msg != "" {
		t.Fatalf("allowed outcome explained: %q", msg)
	}
	// Arity mismatch reports unclassifiable.
	msg = explainViolation(corr, litmus.Outcome{})
	if !strings.Contains(msg, "unclassifiable") {
		t.Fatalf("bad outcome not flagged: %q", msg)
	}
}

func TestCurateCTS(t *testing.T) {
	s := study(t)
	var tests []*litmus.Test
	for _, n := range []string{"MP", "CoRR-mutant", "SB"} {
		tt, _ := s.Suite.ByName(n)
		tests = append(tests, tt)
	}
	cfg := tuning.SmallConfig()
	cfg.Environments = 3
	cfg.SITEIterations = 4
	cfg.PTEIterations = 2
	cfg.Devices = []string{"AMD", "Intel"}
	ds, err := tuning.RunCampaign(cfg, tests, tuning.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CurateCTS(ds, "PTE", 0.95, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Entries) != 3 {
		t.Fatalf("%d entries, want 3", len(plan.Entries))
	}
	for _, e := range plan.Entries {
		if e.TotalDevices != 2 {
			t.Fatalf("entry %s: %d devices", e.Test, e.TotalDevices)
		}
		if e.Reproducible && e.Env == "" {
			t.Fatalf("entry %s reproducible without an environment", e.Test)
		}
	}
	if plan.MutationScore < 0 || plan.MutationScore > 1 {
		t.Fatalf("MutationScore = %v", plan.MutationScore)
	}
	if plan.TotalBudgetSeconds != 3 {
		t.Fatalf("TotalBudgetSeconds = %v", plan.TotalBudgetSeconds)
	}
	if plan.TotalReproducibility <= 0 || plan.TotalReproducibility > 1 {
		t.Fatalf("TotalReproducibility = %v", plan.TotalReproducibility)
	}
	// Entries are sorted by test name.
	for i := 1; i < len(plan.Entries); i++ {
		if plan.Entries[i-1].Test > plan.Entries[i].Test {
			t.Fatal("entries not sorted")
		}
	}
}

func TestCurateCTSErrors(t *testing.T) {
	ds := &tuning.Dataset{}
	if _, err := CurateCTS(ds, "PTE", 0.95, 1); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestPlatformRunnerUsesToolchain(t *testing.T) {
	s := study(t)
	// The fence-dropping platform must kill MP-relacq's nofence mutant
	// and its base at comparable rates since fences are gone either way.
	p := Platform{Device: "AMD", Driver: wgsl.DriverFenceDropping}
	score, err := s.EvaluateEnvironmentsCtx(context.Background(), p, []harness.Params{testEnv()}, 3, 17, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if score.Killed == 0 {
		t.Fatal("nothing killed through defective toolchain")
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Test: "CoRR", Outcome: "r0=1 r1=0 | x=1"}
	if !strings.Contains(f.Outcome, "r0=1") {
		t.Fatal("outcome mangled")
	}
}
