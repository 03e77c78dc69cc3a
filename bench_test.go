package repro

// The benchmarks below regenerate every table and figure of the paper
// at simulation scale, one benchmark per experiment. Quantities of
// interest (mutation scores, death rates, correlation coefficients)
// are attached to the benchmark output as custom metrics, so
// `go test -bench=. -benchmem` doubles as the experiment driver; see
// EXPERIMENTS.md for the paper-vs-measured discussion.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/confidence"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/mutation"
	"repro/internal/report"
	"repro/internal/tuning"
	"repro/internal/wgsl"
	"repro/internal/xrand"
)

// BenchmarkFig1LitmusPrograms renders the two motivating litmus tests.
func BenchmarkFig1LitmusPrograms(b *testing.B) {
	s := mutation.MustGenerate()
	for i := 0; i < b.N; i++ {
		if out := report.Fig1(s); len(out) == 0 {
			b.Fatal("empty rendering")
		}
	}
}

// BenchmarkFig2Executions reconstructs and checks the disallowed
// candidate executions of every conformance test, including the
// happens-before cycles of Fig. 2.
func BenchmarkFig2Executions(b *testing.B) {
	s := mutation.MustGenerate()
	for i := 0; i < b.N; i++ {
		for _, t := range s.Conformance {
			x, err := t.TargetExecution()
			if err != nil {
				b.Fatal(err)
			}
			if v := x.Check(t.Model); v.Allowed {
				b.Fatalf("%s: conformance target allowed", t.Name)
			}
		}
	}
}

// BenchmarkFig3MutatorTemplates renders the mutator templates.
func BenchmarkFig3MutatorTemplates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := report.Fig3(); len(out) == 0 {
			b.Fatal("empty rendering")
		}
	}
}

// BenchmarkTable2SuiteGeneration generates the full suite and checks
// Table 2's totals (20 conformance tests, 32 mutants).
func BenchmarkTable2SuiteGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := mutation.Generate()
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Conformance) != 20 || len(s.Mutants) != 32 {
			b.Fatalf("suite %d/%d", len(s.Conformance), len(s.Mutants))
		}
	}
}

// BenchmarkTable3Devices instantiates the fleet and runs a trivial
// kernel on each device.
func BenchmarkTable3Devices(b *testing.B) {
	spec := gpu.LaunchSpec{
		WorkgroupSize: 1, Workgroups: 2, MemWords: 1,
		Programs: []gpu.Program{
			{{Op: gpu.OpStore, Addr: 0, Imm: 1}},
			{{Op: gpu.OpLoad, Addr: 0, Reg: 0}},
		},
	}
	rng := xrand.New(1)
	for i := 0; i < b.N; i++ {
		for _, p := range gpu.Profiles() {
			d, err := gpu.NewDevice(p, gpu.Bugs{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := d.RunCtx(context.Background(), spec, rng); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// pteEnv is the stressed parallel environment used by the experiment
// benchmarks.
func pteEnv() harness.Params {
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

// BenchmarkFig4PTEAssignment runs one PTE iteration of the MP mutant,
// exercising the co-prime permutation thread/instance assignment. One
// op is one RunCtx call — a fresh Result plus one RunInto — the unit
// the CI gate's reference numbers were recorded in.
func BenchmarkFig4PTEAssignment(b *testing.B) {
	s := mutation.MustGenerate()
	test, _ := s.ByName("MP")
	prof, _ := gpu.ProfileByName("AMD")
	dev, err := gpu.NewDevice(prof, gpu.Bugs{})
	if err != nil {
		b.Fatal(err)
	}
	r, err := harness.NewRunner(dev, pteEnv())
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	ctx := context.Background()
	b.ReportAllocs()
	instances := 0
	for i := 0; i < b.N; i++ {
		res, err := r.RunCtx(ctx, test, 1, rng)
		if err != nil {
			b.Fatal(err)
		}
		instances = res.Instances
	}
	b.ReportMetric(float64(instances), "instances/launch")
}

// fig5Dataset builds the scaled tuning dataset shared by the Fig. 5
// and Fig. 6 benchmarks.
var fig5DS *tuning.Dataset

func fig5Dataset(b *testing.B) *tuning.Dataset {
	b.Helper()
	if fig5DS != nil {
		return fig5DS
	}
	suite := mutation.MustGenerate()
	cfg := tuning.SmallConfig()
	cfg.Environments = 3
	cfg.SITEIterations = 12
	cfg.PTEIterations = 2
	ds, err := tuning.RunCampaign(cfg, suite.Mutants, tuning.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	fig5DS = ds
	return ds
}

// BenchmarkFig5MutationScores runs the scaled tuning study and reports
// the aggregate mutation scores and death rates per family.
func BenchmarkFig5MutationScores(b *testing.B) {
	var ds *tuning.Dataset
	for i := 0; i < b.N; i++ {
		fig5DS = nil
		ds = fig5Dataset(b)
	}
	for _, fam := range []string{"SITE-Baseline", "SITE", "PTE-Baseline", "PTE"} {
		killed, total := ds.MutationScore(fam, "", "")
		rate := ds.AvgDeathRate(fam, "", "")
		b.ReportMetric(100*float64(killed)/float64(total), fam+"-score%")
		b.ReportMetric(rate, fam+"-kills/s")
	}
	if out := report.Fig5(ds); len(out) == 0 {
		b.Fatal("empty Fig5 rendering")
	}
}

// BenchmarkFig6BudgetSweep merges environments per test (Algorithm 1)
// across the budget axis at both reproducibility targets and reports
// the PTE mutation score at the largest budget.
func BenchmarkFig6BudgetSweep(b *testing.B) {
	ds := fig5Dataset(b)
	tables := ds.RateTables("PTE")
	budgets := confidence.PowersOfTwoBudgets(-10, 6)
	targets := []float64{0.95, 0.99999}
	var points []confidence.SweepPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		points, err = confidence.BudgetSweep(tables, ds.Devices(), targets, budgets)
		if err != nil {
			b.Fatal(err)
		}
	}
	best := points[len(points)-1]
	b.ReportMetric(100*best.Score(), "PTE-score%@max-budget")
	if out := report.Fig6(points); len(out) == 0 {
		b.Fatal("empty Fig6 rendering")
	}
}

// BenchmarkTable4Correlation runs the three bug-correlation cases as
// one correlate campaign and reports each case's Pearson coefficient
// and the environments where its bug was observed.
func BenchmarkTable4Correlation(b *testing.B) {
	st, err := core.NewStudy()
	if err != nil {
		b.Fatal(err)
	}
	ws := core.WorkSpec{Kind: "correlate", TuneEnvs: 12, Iters: 3, Seed: 2023}
	var res *core.WorkResult
	for i := 0; i < b.N; i++ {
		res, err = st.RunWorkSpec(context.Background(), ws, core.CampaignOptions{Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Artifact.Correlation {
		b.ReportMetric(row.PCC, row.Case.Name+"-PCC")
		b.ReportMetric(float64(row.BugObservedIn), row.Case.Name+"-bug-envs")
	}
}

// BenchmarkSection52HeadlineRatio measures the PTE/SITE death-rate
// ratio on the MP mutant (the paper's headline 2731x average).
func BenchmarkSection52HeadlineRatio(b *testing.B) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	prof, _ := gpu.ProfileByName("AMD")
	dev, err := gpu.NewDevice(prof, gpu.Bugs{})
	if err != nil {
		b.Fatal(err)
	}
	site := harness.SITEBaseline()
	site.MaxWorkgroups = 12
	site.MemStressPct = 100
	site.MemStressIters = 12
	site.PreStressPct = 100
	site.PreStressIters = 3
	site.MemStride = 2
	site.MemLocOffset = 1
	var pteRate, siteRate float64
	for i := 0; i < b.N; i++ {
		rng := xrand.New(9)
		pr, err := harness.NewRunner(dev, pteEnv())
		if err != nil {
			b.Fatal(err)
		}
		pres, err := pr.RunCtx(context.Background(), test, 4, rng)
		if err != nil {
			b.Fatal(err)
		}
		sr, err := harness.NewRunner(dev, site)
		if err != nil {
			b.Fatal(err)
		}
		sres, err := sr.RunCtx(context.Background(), test, 40, rng)
		if err != nil {
			b.Fatal(err)
		}
		pteRate, siteRate = pres.TargetRate(), sres.TargetRate()
	}
	b.ReportMetric(pteRate, "PTE-kills/s")
	b.ReportMetric(siteRate, "SITE-kills/s")
	if siteRate > 0 {
		b.ReportMetric(pteRate/siteRate, "ratio")
	}
}

// BenchmarkBugDiscovery runs the MP-relacq conformance test through
// the defective toolchain (the Sec. 1.1 discovery) and reports the
// violation rate, the analog of the paper's 10.4 violations/s.
func BenchmarkBugDiscovery(b *testing.B) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP-relacq")
	prof, _ := gpu.ProfileByName("AMD")
	dev, err := gpu.NewDevice(prof, gpu.Bugs{})
	if err != nil {
		b.Fatal(err)
	}
	r, err := harness.NewRunner(dev, pteEnv())
	if err != nil {
		b.Fatal(err)
	}
	r.Lower = wgsl.NewToolchain(prof, wgsl.DriverFenceDropping).LowerFunc()
	rng := xrand.New(3)
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := r.RunCtx(context.Background(), test, 4, rng)
		if err != nil {
			b.Fatal(err)
		}
		rate = res.ViolationRate()
	}
	b.ReportMetric(rate, "violations/s")
}

// BenchmarkCampaign measures the campaign scheduler: the same tuning
// sweep runs serially and on an 8-worker pool, and the observed
// speedup is attached as a metric. The datasets are verified identical
// before any time is reported — parallelism that changed the science
// would be a bug, not a speedup. The achievable speedup tracks
// GOMAXPROCS (reported alongside); on a single-core host the two runs
// tie and the metric documents that honestly.
func BenchmarkCampaign(b *testing.B) {
	suite := mutation.MustGenerate()
	var tests []*litmus.Test
	for _, name := range []string{"CoRR-mutant", "MP", "SB", "LB", "MP-relacq"} {
		t, ok := suite.ByName(name)
		if !ok {
			b.Fatalf("unknown test %q", name)
		}
		tests = append(tests, t)
	}
	cfg := tuning.SmallConfig()
	cfg.Environments = 2
	cfg.SITEIterations = 10
	cfg.PTEIterations = 3
	cfg.Devices = []string{"AMD", "Intel", "NVIDIA", "M1"}
	run := func(workers int) (*tuning.Dataset, time.Duration) {
		start := time.Now()
		ds, err := tuning.RunCampaign(cfg, tests, tuning.RunOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		return ds, time.Since(start)
	}
	var serial, parallel time.Duration
	for i := 0; i < b.N; i++ {
		dsSerial, ts := run(1)
		dsParallel, tp := run(8)
		if len(dsSerial.Records) != len(dsParallel.Records) {
			b.Fatal("worker count changed the record count")
		}
		for j := range dsSerial.Records {
			if dsSerial.Records[j] != dsParallel.Records[j] {
				b.Fatalf("record %d differs between worker counts", j)
			}
		}
		serial += ts
		parallel += tp
	}
	b.ReportMetric(serial.Seconds()/float64(b.N), "serial-s")
	b.ReportMetric(parallel.Seconds()/float64(b.N), "parallel8-s")
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkAxiomaticChecker measures outcome classification over the
// whole suite — the analysis cost per distinct outcome.
func BenchmarkAxiomaticChecker(b *testing.B) {
	suite := mutation.MustGenerate()
	outcomes := make([]litmus.Outcome, 0, len(suite.Conformance))
	tests := suite.All()
	for _, t := range tests {
		outcomes = append(outcomes, t.TargetOutcome())
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j, t := range tests {
			if _, err := t.Classify(outcomes[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
