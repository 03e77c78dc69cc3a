package report

import (
	"strings"
	"testing"

	"repro/internal/confidence"
	"repro/internal/core"
	"repro/internal/litmus"
	"repro/internal/mutation"
	"repro/internal/tuning"
)

func TestTable2(t *testing.T) {
	s := mutation.MustGenerate()
	out := Table2(s)
	for _, want := range []string{
		"reversing po-loc", "weakening po-loc", "weakening sw", "Combined",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q:\n%s", want, out)
		}
	}
	// The totals row must show 20 and 32.
	if !strings.Contains(out, "20") || !strings.Contains(out, "32") {
		t.Errorf("Table2 totals wrong:\n%s", out)
	}
}

func TestTable3(t *testing.T) {
	out := Table3()
	for _, want := range []string{
		"GeForce RTX 2080", "Radeon Pro 5500M", "Iris Plus Graphics", "M1",
		"64", "24", "48", "128", "Discrete", "Integrated",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table3 missing %q:\n%s", want, out)
		}
	}
}

func TestFig1(t *testing.T) {
	out := Fig1(mutation.MustGenerate())
	if !strings.Contains(out, "CoRR") || !strings.Contains(out, "MP-relacq") {
		t.Errorf("Fig1 missing tests:\n%s", out)
	}
	if !strings.Contains(out, "fence(release/acquire)") {
		t.Errorf("Fig1 missing fences:\n%s", out)
	}
}

func TestFig2(t *testing.T) {
	out, err := Fig2(mutation.MustGenerate())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "hb cycle:") {
		t.Errorf("Fig2 missing cycles:\n%s", out)
	}
	if !strings.Contains(out, "po;sw;po") {
		t.Errorf("Fig2 MP-relacq cycle should use po;sw;po:\n%s", out)
	}
}

func TestFig3(t *testing.T) {
	out := Fig3()
	for _, want := range []string{"Mutator 1", "Mutator 2", "Mutator 3", "disruptor"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig3 missing %q", want)
		}
	}
}

func TestFig4(t *testing.T) {
	out := Fig4(8, 7)
	if !strings.Contains(out, "t0") || !strings.Contains(out, "instance") {
		t.Errorf("Fig4 malformed:\n%s", out)
	}
	// Defaulting for tiny instance counts.
	if !strings.Contains(Fig4(0, 7), "8 instances") {
		t.Error("Fig4 default not applied")
	}
}

func TestFig5AndFig6(t *testing.T) {
	suite := mutation.MustGenerate()
	var tests []*litmus.Test
	for _, n := range []string{"MP", "CoRR-mutant"} {
		tt, _ := suite.ByName(n)
		tests = append(tests, tt)
	}
	cfg := tuning.SmallConfig()
	cfg.Environments = 2
	cfg.SITEIterations = 4
	cfg.PTEIterations = 2
	cfg.Devices = []string{"AMD"}
	ds, err := tuning.RunCampaign(cfg, tests, tuning.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := Fig5(ds)
	for _, want := range []string{"all mutators", "SITE-Baseline", "PTE", "AMD", "ALL"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig5 missing %q:\n%s", want, out)
		}
	}
	points, err := confidence.BudgetSweep(ds.RateTables("PTE"), ds.Devices(),
		[]float64{0.95, 0.99999}, confidence.PowersOfTwoBudgets(-2, 2))
	if err != nil {
		t.Fatal(err)
	}
	f6 := Fig6(points)
	for _, want := range []string{"budget (s)", "95%", "99.999%", "mutation score"} {
		if !strings.Contains(f6, want) {
			t.Errorf("Fig6 missing %q:\n%s", want, f6)
		}
	}
}

func TestTable4(t *testing.T) {
	rows := []core.CorrelationRow{
		{
			Case:         core.PaperBugCases()[0],
			Environments: 24, PCC: 0.91, PValue: 1e-9,
			BugObservedIn: 20, MutantKilledIn: 24,
		},
	}
	out := Table4(rows)
	for _, want := range []string{"Intel/CoRR", "reversing po-loc", "0.910", "20/24"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table4 missing %q:\n%s", want, out)
		}
	}
}

func TestSuiteListing(t *testing.T) {
	out := SuiteListing(mutation.MustGenerate())
	lines := strings.Count(out, "\n")
	if lines != 53 { // header + 52 tests
		t.Fatalf("listing has %d lines, want 53:\n%s", lines, out)
	}
	if !strings.Contains(out, "MP-relacq-nofence") {
		t.Error("listing missing mutants")
	}
}
