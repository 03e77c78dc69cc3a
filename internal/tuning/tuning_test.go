package tuning

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/confidence"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/mutation"
	"repro/internal/xrand"
)

// miniDataset runs a very small tuning study over a handful of mutants
// and is shared across tests (building it is the expensive part).
var miniDS *Dataset

func dataset(t testing.TB) *Dataset {
	t.Helper()
	if miniDS != nil {
		return miniDS
	}
	suite := mutation.MustGenerate()
	var tests []*litmus.Test
	for _, name := range []string{"CoRR-mutant", "MP", "SB", "MP-relacq-nofence"} {
		test, ok := suite.ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		tests = append(tests, test)
	}
	cfg := SmallConfig()
	cfg.Environments = 3
	cfg.SITEIterations = 10
	cfg.PTEIterations = 2
	cfg.Devices = []string{"AMD", "Intel"}
	ds, err := RunCampaign(cfg, tests, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	miniDS = ds
	return ds
}

func TestFamilies(t *testing.T) {
	fams := Families()
	if len(fams) != 4 {
		t.Fatal("want 4 families")
	}
	names := map[Family]string{
		SITEBaseline: "SITE-Baseline", SITE: "SITE",
		PTEBaseline: "PTE-Baseline", PTE: "PTE",
	}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("%d: %q", f, f.String())
		}
		got, ok := FamilyByName(want)
		if !ok || got != f {
			t.Errorf("FamilyByName(%q) failed", want)
		}
	}
	if _, ok := FamilyByName("nope"); ok {
		t.Error("bogus family resolved")
	}
	if !PTE.Parallel() || SITE.Parallel() {
		t.Error("Parallel() wrong")
	}
	if !SITEBaseline.Baseline() || PTE.Baseline() {
		t.Error("Baseline() wrong")
	}
}

func TestRunProducesCompleteGrid(t *testing.T) {
	ds := dataset(t)
	// Families: baselines have 1 env, tuned have 3. Devices: 2.
	// Tests: 4. Expected records: (1+3+1+3) * 2 * 4 = 64.
	if len(ds.Records) != 64 {
		t.Fatalf("got %d records, want 64", len(ds.Records))
	}
	seen := map[string]int{}
	for _, r := range ds.Records {
		seen[r.Family]++
		if r.Iterations <= 0 || r.Instances <= 0 || r.SimSeconds <= 0 {
			t.Fatalf("degenerate record: %+v", r)
		}
		if !r.IsMutant {
			t.Fatalf("non-mutant record for %s", r.Test)
		}
	}
	if seen["SITE-Baseline"] != 8 || seen["PTE-Baseline"] != 8 ||
		seen["SITE"] != 24 || seen["PTE"] != 24 {
		t.Fatalf("family record counts: %v", seen)
	}
}

func TestRunRejectsEmptyTests(t *testing.T) {
	if _, err := RunCampaign(SmallConfig(), nil, RunOptions{}); err == nil {
		t.Fatal("empty test list accepted")
	}
}

func TestRunUnknownDevice(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	cfg := SmallConfig()
	cfg.Environments = 1
	cfg.Devices = []string{"Voodoo2"}
	if _, err := RunCampaign(cfg, []*litmus.Test{test}, RunOptions{}); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestMutationScoreAndRates(t *testing.T) {
	ds := dataset(t)
	for _, fam := range []string{"PTE", "PTE-Baseline"} {
		killed, total := ds.MutationScore(fam, "", "")
		if total != 8 { // 4 mutants x 2 devices
			t.Fatalf("%s: total = %d, want 8", fam, total)
		}
		if killed <= 0 {
			t.Fatalf("%s killed nothing", fam)
		}
	}
	pteKilled, _ := ds.MutationScore("PTE", "", "")
	siteBaseKilled, _ := ds.MutationScore("SITE-Baseline", "", "")
	if pteKilled < siteBaseKilled {
		t.Fatalf("PTE (%d) under SITE-Baseline (%d)", pteKilled, siteBaseKilled)
	}
	if rate := ds.AvgDeathRate("PTE", "", ""); rate <= 0 {
		t.Fatal("PTE average death rate is 0")
	}
	if rate := ds.AvgDeathRate("PTE", "AMD", "weakening po-loc"); rate < 0 {
		t.Fatal("filtered death rate negative")
	}
	if rate := ds.AvgDeathRate("nonexistent", "", ""); rate != 0 {
		t.Fatal("unknown family should rate 0")
	}
}

func TestPTEOutpacesSITEOnRates(t *testing.T) {
	ds := dataset(t)
	pte := ds.AvgDeathRate("PTE", "", "")
	site := ds.AvgDeathRate("SITE", "", "")
	if pte <= site {
		t.Fatalf("PTE rate %v not above SITE rate %v", pte, site)
	}
	// The paper reports ~3 orders of magnitude; under the scaled-down
	// simulation demand at least one order.
	if site > 0 && pte/site < 10 {
		t.Errorf("PTE/SITE rate ratio only %.1fx", pte/site)
	}
}

func TestRateTables(t *testing.T) {
	ds := dataset(t)
	tables := ds.RateTables("PTE")
	if len(tables) != 4 {
		t.Fatalf("%d rate tables, want 4", len(tables))
	}
	for _, tr := range tables {
		if len(tr.Rates) != 3 { // 3 PTE environments
			t.Fatalf("%s: %d environments, want 3", tr.Test, len(tr.Rates))
		}
		for env, per := range tr.Rates {
			if len(per) != 2 { // 2 devices
				t.Fatalf("%s/%s: %d devices", tr.Test, env, len(per))
			}
		}
	}
	// The tables feed Algorithm 1 without error.
	for _, tr := range tables {
		if _, err := confidence.MergeEnvironments(tr.Rates, ds.Devices(), 0.95, 1); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	ds := dataset(t)
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(ds.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(back.Records), len(ds.Records))
	}
	if back.Records[0] != ds.Records[0] {
		t.Fatalf("first record changed:\n%+v\n%+v", back.Records[0], ds.Records[0])
	}
	if _, err := Load(bytes.NewBufferString("{broken")); err == nil {
		t.Fatal("corrupt JSON accepted")
	}
}

func TestDevicesAndMutators(t *testing.T) {
	ds := dataset(t)
	devs := ds.Devices()
	if len(devs) != 2 || devs[0] != "AMD" || devs[1] != "Intel" {
		t.Fatalf("Devices() = %v", devs)
	}
	muts := ds.Mutators()
	if len(muts) != 3 {
		t.Fatalf("Mutators() = %v", muts)
	}
}

func TestDeterministicRuns(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	cfg := SmallConfig()
	cfg.Environments = 2
	cfg.SITEIterations = 5
	cfg.PTEIterations = 2
	cfg.Devices = []string{"AMD"}
	a, err := RunCampaign(cfg, []*litmus.Test{test}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(cfg, []*litmus.Test{test}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs between identical runs", i)
		}
	}
}

func TestProgressCallback(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	cfg := SmallConfig()
	cfg.Environments = 1
	cfg.SITEIterations = 2
	cfg.PTEIterations = 1
	cfg.Devices = []string{"AMD"}
	var lines int
	if _, err := RunCampaign(cfg, []*litmus.Test{test}, RunOptions{Progress: func(string) { lines++ }}); err != nil {
		t.Fatal(err)
	}
	if lines != 4 { // 4 families x 1 env x 1 device
		t.Fatalf("progress lines = %d, want 4", lines)
	}
}

func TestOptimizeFindsKillingEnvironment(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	cfg := DefaultOptimizeConfig()
	cfg.ExploreRounds = 8
	cfg.RefineRounds = 8
	cfg.Iterations = 3
	best, err := Optimize(context.Background(), test, "AMD", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if best.Evaluated != 16 {
		t.Fatalf("Evaluated = %d, want 16", best.Evaluated)
	}
	if best.Kills == 0 || best.Rate <= 0 {
		t.Fatalf("optimizer found no killing environment: %+v", best)
	}
	if err := best.Env.Validate(); err != nil {
		t.Fatalf("optimizer returned invalid env: %v", err)
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("SB")
	cfg := DefaultOptimizeConfig()
	cfg.ExploreRounds = 4
	cfg.RefineRounds = 2
	cfg.Iterations = 2
	a, err := Optimize(context.Background(), test, "Intel", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(context.Background(), test, "Intel", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rate != b.Rate || a.Kills != b.Kills {
		t.Fatalf("nondeterministic optimizer: %+v vs %+v", a, b)
	}
}

// TestOptimizeRespectsContext: a search under an ended context stops
// with the context's error instead of evaluating its candidates.
func TestOptimizeRespectsContext(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Optimize(ctx, test, "AMD", DefaultOptimizeConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Optimize under a cancelled context = %v, want context.Canceled", err)
	}
}

func TestOptimizeErrors(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	cfg := DefaultOptimizeConfig()
	cfg.ExploreRounds = 0
	if _, err := Optimize(context.Background(), test, "AMD", cfg); err == nil {
		t.Error("zero rounds accepted")
	}
	cfg = DefaultOptimizeConfig()
	cfg.Iterations = 0
	if _, err := Optimize(context.Background(), test, "AMD", cfg); err == nil {
		t.Error("zero iterations accepted")
	}
	cfg = DefaultOptimizeConfig()
	if _, err := Optimize(context.Background(), test, "nope", cfg); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestNeighborAlwaysValid(t *testing.T) {
	rng := xrand.New(11)
	scale := harness.DefaultScale()
	p := harness.Random(rng, true, scale)
	for i := 0; i < 500; i++ {
		p = neighbor(p, rng, scale)
		if err := p.Validate(); err != nil {
			t.Fatalf("step %d: %v\n%+v", i, err, p)
		}
	}
}
