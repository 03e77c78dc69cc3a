package repro

// Hot-path allocation benchmarks. The steady-state campaign loop —
// plan generation, device execution, outcome extraction,
// classification and histogram accumulation — is designed to be
// allocation-free once a Runner is warm: every buffer it needs lives
// in runner- or device-owned scratch that is reset in place each
// iteration. BenchmarkSteadyStateAllocs measures exactly that loop,
// BenchmarkLoweredSteadyStateAllocs the same loop behind the
// fence-dropping Vulkan lowering every conformance cell runs, and CI
// fails if either ever reports a nonzero allocs/op, so an accidental
// escape or map growth on the hot path cannot land silently.
// BENCH_hotpath.json (regenerated by TestEmitHotpathBench)
// records the before/after numbers for the optimization.

import (
	"context"
	"encoding/json"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/mutation"
	"repro/internal/resultcache"
	"repro/internal/tuning"
	"repro/internal/wgsl"
	"repro/internal/xrand"
)

// warmRunner builds a Runner for the MP mutant in the stressed PTE
// environment and runs it until every arena has grown to its working
// size and the classifier memo and histogram key set are populated.
// With lowered set, every program first goes through the AMD profile's
// fence-dropping Vulkan toolchain, as in a -fence-bug conformance cell.
func warmRunner(tb testing.TB, lowered bool) func(int, *xrand.Rand) error {
	tb.Helper()
	s := mutation.MustGenerate()
	test, ok := s.ByName("MP")
	if !ok {
		tb.Fatal("MP mutant missing from suite")
	}
	prof, ok := gpu.ProfileByName("AMD")
	if !ok {
		tb.Fatal("AMD profile missing")
	}
	dev, err := gpu.NewDevice(prof, gpu.Bugs{})
	if err != nil {
		tb.Fatal(err)
	}
	r, err := harness.NewRunner(dev, pteEnv())
	if err != nil {
		tb.Fatal(err)
	}
	if lowered {
		r.Lower = wgsl.NewToolchain(prof, wgsl.DriverFenceDropping).LowerFunc()
	}
	res := &harness.Result{}
	run := func(iters int, rng *xrand.Rand) error {
		return r.RunInto(context.Background(), res, test, iters, rng)
	}
	warm := xrand.New(1)
	for i := 0; i < 8; i++ {
		if err := run(4, warm); err != nil {
			tb.Fatal(err)
		}
	}
	return run
}

// BenchmarkSteadyStateAllocs measures the warm campaign loop: a reused
// Runner and Result executing launches through RunInto. Each op
// replays the same RNG state, so the measurement is the pure steady
// state — identical plans and outcome keys, no arena growth and no
// first-sight map inserts (a genuinely novel outcome key still costs
// one amortized map entry; that is by design and not steady-state
// cost). The CI bench gate requires 0 allocs/op here.
func BenchmarkSteadyStateAllocs(b *testing.B) { benchSteadyState(b, false) }

// BenchmarkLoweredSteadyStateAllocs is BenchmarkSteadyStateAllocs with
// the fence-dropping Vulkan lowering installed as Runner.Lower: the
// path every conformance cell, serve job and dist worker runs. The CI
// bench gate requires 0 allocs/op here too; it has no ns/op budget.
func BenchmarkLoweredSteadyStateAllocs(b *testing.B) { benchSteadyState(b, true) }

func benchSteadyState(b *testing.B, lowered bool) {
	run := warmRunner(b, lowered)
	rng := xrand.New(1)
	state := *rng
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*rng = state
		if err := run(4, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSteadyStateZeroAllocs asserts the allocation-free contract under
// plain `go test`, so tier-1 catches hot-path regressions even when
// the benchmarks are not run.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, lowered := range []bool{false, true} {
		run := warmRunner(t, lowered)
		rng := xrand.New(1)
		state := *rng
		allocs := testing.AllocsPerRun(20, func() {
			*rng = state
			if err := run(2, rng); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("warm RunInto (lowered=%v): %v allocs/run, want 0", lowered, allocs)
		}
	}
}

// prebuiltLaunch is one kernel launch ready to run on its device.
type prebuiltLaunch struct {
	dev  *gpu.Device
	spec gpu.LaunchSpec
}

// conformanceLaunches prebuilds the launch mix of a fleet conformance
// campaign: one kernel of each of the 20 conformance tests on each of
// the four Table 3 devices (80 launches), in the campaign's "pte"
// environment and lowered by the fence-dropping driver, as every
// `mcmutants campaign -kind conformance -fence-bug` cell runs them.
// Each device is shared by its 20 launches, so its executor is warm.
func conformanceLaunches(tb testing.TB) []prebuiltLaunch {
	tb.Helper()
	suite := mutation.MustGenerate()
	env, err := core.EnvByName("pte", 16, 32)
	if err != nil {
		tb.Fatal(err)
	}
	rng := xrand.New(1)
	var out []prebuiltLaunch
	for _, prof := range gpu.Profiles() {
		dev, err := gpu.NewDevice(prof, gpu.Bugs{})
		if err != nil {
			tb.Fatal(err)
		}
		lower := wgsl.NewToolchain(prof, wgsl.DriverFenceDropping).LowerFunc()
		for _, test := range suite.Conformance {
			spec, err := harness.BuildKernel(test, &env, rng)
			if err != nil {
				tb.Fatal(err)
			}
			for i, p := range spec.Programs {
				spec.Programs[i] = lower(p)
			}
			out = append(out, prebuiltLaunch{dev: dev, spec: *spec})
		}
	}
	return out
}

// BenchmarkConformanceLaunches runs the 80 prebuilt launches of
// conformanceLaunches through Device.RunCtx; one op is all 80. Kernel
// generation, lowering and classification are outside the loop, so
// this is the executor's share of a conformance campaign: decode,
// scheduling, issue and completion. Each op replays the same rng
// state. It is recorded in BENCH_hotpath.json and not gated.
func BenchmarkConformanceLaunches(b *testing.B) {
	launches := conformanceLaunches(b)
	ctx := context.Background()
	rng := xrand.New(2)
	state := *rng
	for _, l := range launches { // warm every device's executor
		if _, err := l.dev.RunCtx(ctx, l.spec, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*rng = state
		for _, l := range launches {
			if _, err := l.dev.RunCtx(ctx, l.spec, rng); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestSteadyStateZeroAllocsAcrossTests is TestSteadyStateZeroAllocs for
// a runner whose consecutive calls change test, as a conformance
// worker's cells do (the 20 conformance tests on one platform):
// validation, value domains and the classification memo are resolved
// per test, so switching tests allocates nothing once each test has
// been seen. The device is conformant and the lowering clean: a call
// that does find a violation copies it out of the runner's arenas into
// Result.FirstViolation, three allocations that are the cell's result,
// not loop overhead.
func TestSteadyStateZeroAllocsAcrossTests(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	suite := mutation.MustGenerate()
	prof, ok := gpu.ProfileByName("AMD")
	if !ok {
		t.Fatal("AMD profile missing")
	}
	dev, err := gpu.NewDevice(prof, gpu.Bugs{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := harness.NewRunner(dev, pteEnv())
	if err != nil {
		t.Fatal(err)
	}
	r.Lower = wgsl.NewToolchain(prof, wgsl.DriverConformant).LowerFunc()
	res := &harness.Result{}
	ctx := context.Background()
	runAll := func(rng *xrand.Rand) {
		for _, test := range suite.Conformance {
			if err := r.RunInto(ctx, res, test, 1, rng); err != nil {
				t.Fatal(err)
			}
			if res.FirstViolation != nil {
				t.Fatalf("%s violated on a conformant device", test.Name)
			}
		}
	}
	rng := xrand.New(1)
	state := *rng
	for i := 0; i < 4; i++ {
		*rng = state
		runAll(rng)
	}
	allocs := testing.AllocsPerRun(5, func() {
		*rng = state
		runAll(rng)
	})
	if allocs != 0 {
		t.Errorf("warm RunInto over %d alternating tests: %v allocs/run, want 0", len(suite.Conformance), allocs)
	}
}

// benchTuneCampaign is a small-but-nontrivial tuning sweep shared by
// the result-cache benchmarks: 2 environment families × 3 mutants on
// one device, enough cells that the warm/cold gap measures cache
// effectiveness rather than fixed campaign overhead.
func benchTuneCampaign(tb testing.TB) (tuning.Config, []*litmus.Test) {
	tb.Helper()
	suite := mutation.MustGenerate()
	var tests []*litmus.Test
	for _, name := range []string{"CoRR-mutant", "MP", "SB"} {
		test, ok := suite.ByName(name)
		if !ok {
			tb.Fatalf("%s missing from suite", name)
		}
		tests = append(tests, test)
	}
	cfg := tuning.SmallConfig()
	cfg.Environments = 2
	cfg.SITEIterations = 6
	cfg.PTEIterations = 2
	cfg.Devices = []string{"AMD"}
	return cfg, tests
}

// BenchmarkTuneColdNoCache is the uncached baseline: every cell runs
// through the simulator. Its ratio to BenchmarkTuneWarmCache is the
// result cache's headline saving.
func BenchmarkTuneColdNoCache(b *testing.B) {
	cfg, tests := benchTuneCampaign(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tuning.RunCampaign(cfg, tests, tuning.RunOptions{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTuneWarmCache measures a fully warm re-run: one cold pass
// publishes every cell, then each op serves the entire campaign from
// verified cache entries — simulation skipped, only key derivation,
// entry reads and digest checks remain. Each op follows the last
// within the cache's one-minute recency grain, so no hit refreshes its
// entry's mtime.
func BenchmarkTuneWarmCache(b *testing.B) { benchTuneWarm(b, 0) }

// BenchmarkTuneWarmCacheAged is BenchmarkTuneWarmCache with the
// cache's clock two minutes further on at every op, as when a study is
// re-run in a later session: every hit is past the recency grain, so
// each also fstats and touches its entry.
func BenchmarkTuneWarmCacheAged(b *testing.B) { benchTuneWarm(b, 2*time.Minute) }

// benchTuneWarm fills a cache with one cold pass, then serves the
// campaign from it once per op, advancing the cache's clock by age
// before each.
func benchTuneWarm(b *testing.B, age time.Duration) {
	cfg, tests := benchTuneCampaign(b)
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	cache, err := resultcache.Open(b.TempDir(), resultcache.Options{Clock: clk})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tuning.RunCampaign(cfg, tests, tuning.RunOptions{Workers: 4, Cache: cache}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Advance(age)
		if _, err := tuning.RunCampaign(cfg, tests, tuning.RunOptions{Workers: 4, Cache: cache}); err != nil {
			b.Fatal(err)
		}
	}
}

// calibrationSink keeps BenchmarkCalibration's work observable.
var calibrationSink uint64

// calRand is BenchmarkCalibration's own xoshiro256** generator, seeded
// like xrand.New(12345). Its step is a frozen copy of xrand's original
// out-of-line step, so the calibration measures the same fixed work
// whatever the simulator's generator compiles to: when xrand's step
// became inlinable, calling it here would have shrunk the calibration,
// and every budget scaled by it, with no change in machine speed.
type calRand struct{ s [4]uint64 }

func newCalRand(seed uint64) *calRand {
	var r calRand
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return &r
}

// next is one xoshiro256** step, kept out of line on purpose.
//
//go:noinline
func (r *calRand) next() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// BenchmarkCalibration is a fixed CPU-bound reference workload — 4096
// xoshiro256** draws plus the float mixing the simulator's latency
// path uses — whose ns/op tracks raw machine speed. The CI ns/op gate
// divides the simulator benchmarks by this number, so a budget
// expressed as a ratio holds across runner hardware generations and
// noisy-neighbor slowdowns that scale the whole process uniformly. It
// calls no simulator code (see calRand).
func BenchmarkCalibration(b *testing.B) {
	rng := newCalRand(12345)
	var acc uint64
	var facc float64
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4096; j++ {
			acc += rng.next()
			facc += float64(acc&0xffff) * 1.5e-5
		}
	}
	calibrationSink = acc + uint64(facc)
}

// hotpathNumbers is one measured point in BENCH_hotpath.json.
type hotpathNumbers struct {
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	NsPerOp     int64 `json:"ns_per_op"`
}

// hotpathPoint is one labeled point in a benchmark's ns/op history.
type hotpathPoint struct {
	Label string `json:"label"`
	hotpathNumbers
}

// hotpathEntry pairs the pre-optimization baseline with a fresh
// measurement for one benchmark, plus the labeled trajectory across
// optimization PRs so the long-run trend stays visible.
type hotpathEntry struct {
	Name    string          `json:"name"`
	Unit    string          `json:"unit"`
	Before  *hotpathNumbers `json:"before"`
	After   hotpathNumbers  `json:"after"`
	History []hotpathPoint  `json:"history"`
	Note    string          `json:"note,omitempty"`
}

// TestEmitHotpathBench rewrites BENCH_hotpath.json with fresh "after"
// measurements next to the recorded pre-optimization baselines. It is
// gated behind EMIT_BENCH=1 so routine test runs never touch the
// committed file:
//
//	EMIT_BENCH=1 go test -run TestEmitHotpathBench -count=1 .
func TestEmitHotpathBench(t *testing.T) {
	if os.Getenv("EMIT_BENCH") == "" {
		t.Skip("set EMIT_BENCH=1 to rewrite BENCH_hotpath.json")
	}
	measure := func(fn func(*testing.B)) hotpathNumbers {
		r := testing.Benchmark(fn)
		return hotpathNumbers{
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			NsPerOp:     r.NsPerOp(),
		}
	}
	// The gated benchmarks run in alternated rounds, and each keeps its
	// median-ns/op round, so drift on a shared host hits all three
	// alike and one noisy round cannot set a CI reference.
	const rounds = 5
	var runs [3][rounds]hotpathNumbers
	for i := 0; i < rounds; i++ {
		for j, fn := range []func(*testing.B){BenchmarkFig4PTEAssignment, BenchmarkSteadyStateAllocs, BenchmarkCalibration} {
			runs[j][i] = measure(fn)
		}
	}
	median := func(rs [rounds]hotpathNumbers) hotpathNumbers {
		sort.Slice(rs[:], func(a, b int) bool { return rs[a].NsPerOp < rs[b].NsPerOp })
		return rs[rounds/2]
	}
	fig4, steady, cal := median(runs[0]), median(runs[1]), median(runs[2])
	tuneCold := measure(BenchmarkTuneColdNoCache)
	tuneWarm := measure(BenchmarkTuneWarmCache)
	launches := measure(BenchmarkConformanceLaunches)
	// The executor before the inlinable RNG step and the leaner
	// issue/complete path: median of six runs alternated with the
	// change, on the same machine as the change's own six.
	launchesBefore := hotpathNumbers{AllocsPerOp: 0, BytesPerOp: 0, NsPerOp: 38808500}
	// History labels name the optimization that produced each point;
	// each point was measured on that PR's builder, so compare trends,
	// not machines. "before" is always measured on the same machine as
	// "after", immediately before the PR's change.
	doc := struct {
		Schema     string         `json:"schema"`
		Go         string         `json:"go"`
		Benchmarks []hotpathEntry `json:"benchmarks"`
	}{
		Schema: "mcmutants-hotpath-bench/v2",
		Go:     runtime.Version(),
		Benchmarks: []hotpathEntry{
			{
				Name: "Fig4PTEAssignment",
				Unit: "one RunCtx(ctx, test, 1, rng) call: fresh Result + one RunInto of one PTE launch",
				// Median of five runs alternated with the change, measured
				// immediately before the warm runner per worker and the
				// in-place step decode, on the same machine as "after".
				Before: &hotpathNumbers{AllocsPerOp: 14, BytesPerOp: 823, NsPerOp: 395665},
				After:  fig4,
				History: []hotpathPoint{
					{Label: "alloc-heavy baseline", hotpathNumbers: hotpathNumbers{AllocsPerOp: 4498, BytesPerOp: 270552, NsPerOp: 1426526}},
					{Label: "scratch-reuse", hotpathNumbers: hotpathNumbers{AllocsPerOp: 20, BytesPerOp: 1335, NsPerOp: 1102618}},
					{Label: "data-oriented executor", hotpathNumbers: hotpathNumbers{AllocsPerOp: 14, BytesPerOp: 891, NsPerOp: 403673}},
					{Label: "blocked-lane mask", hotpathNumbers: hotpathNumbers{AllocsPerOp: 15, BytesPerOp: 907, NsPerOp: 426893}},
					{Label: "po-loc links + live-CU bitmap", hotpathNumbers: hotpathNumbers{AllocsPerOp: 14, BytesPerOp: 846, NsPerOp: 378147}},
					{Label: "warm runner per worker + in-place decode", hotpathNumbers: fig4},
				},
				Note: "remaining allocations are the fresh Result/Histogram the public Run API returns",
			},
			{
				Name:   "SteadyStateAllocs",
				Unit:   "one RunInto of 4 launches on a warm Runner with a reused Result",
				Before: &hotpathNumbers{AllocsPerOp: 0, BytesPerOp: 0, NsPerOp: 1567250},
				After:  steady,
				History: []hotpathPoint{
					{Label: "scratch-reuse", hotpathNumbers: hotpathNumbers{AllocsPerOp: 0, BytesPerOp: 12, NsPerOp: 4839242}},
					{Label: "data-oriented executor", hotpathNumbers: hotpathNumbers{AllocsPerOp: 0, BytesPerOp: 0, NsPerOp: 1529026}},
					{Label: "blocked-lane mask", hotpathNumbers: hotpathNumbers{AllocsPerOp: 0, BytesPerOp: 0, NsPerOp: 1644682}},
					{Label: "po-loc links + live-CU bitmap", hotpathNumbers: hotpathNumbers{AllocsPerOp: 0, BytesPerOp: 0, NsPerOp: 1548117}},
					{Label: "warm runner per worker + in-place decode", hotpathNumbers: steady},
				},
				Note: "RunInto was added by the scratch-reuse optimization; the pre-change loop cost is the Fig4 alloc-heavy baseline per launch",
			},
			{
				Name:   "Calibration",
				Unit:   "4096 xoshiro256** draws + float mixing; machine-speed reference for the CI ns/op gate",
				Before: nil,
				After:  cal,
				History: []hotpathPoint{
					{Label: "data-oriented executor", hotpathNumbers: hotpathNumbers{AllocsPerOp: 0, BytesPerOp: 0, NsPerOp: 14017}},
					{Label: "blocked-lane mask", hotpathNumbers: hotpathNumbers{AllocsPerOp: 0, BytesPerOp: 0, NsPerOp: 19290}},
					{Label: "po-loc links + live-CU bitmap", hotpathNumbers: hotpathNumbers{AllocsPerOp: 0, BytesPerOp: 0, NsPerOp: 19775}},
					{Label: "warm runner per worker + in-place decode", hotpathNumbers: cal},
				},
				Note: "pure reference workload, no simulator code; CI normalizes the other benchmarks' ns/op by this",
			},
			{
				Name:   "TuneWarmCache",
				Unit:   "one small tuning campaign (2 env families × 3 mutants × 1 device), every cell served from the result cache",
				Before: &tuneCold,
				After:  tuneWarm,
				History: []hotpathPoint{
					{Label: "cold (cache off)", hotpathNumbers: tuneCold},
					{Label: "warm result cache", hotpathNumbers: tuneWarm},
				},
				Note: "before = the same campaign with caching off, measured in the same emit run; the ratio is the simulation work the warm run skips",
			},
			{
				Name:   "ConformanceLaunches",
				Unit:   "80 prebuilt conformance launches (20 tests × 4 Table 3 devices, pte environment, fence-dropping lowering) through Device.RunCtx",
				Before: &launchesBefore,
				After:  launches,
				History: []hotpathPoint{
					{Label: "warm runner per worker + in-place decode", hotpathNumbers: launchesBefore},
					{Label: "inlinable RNG step + leaner issue/complete", hotpathNumbers: launches},
				},
				Note: "not gated; the executor's share of a conformance campaign, without kernel generation, lowering or classification",
			},
		},
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile("BENCH_hotpath.json", out, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, e := range doc.Benchmarks {
		t.Logf("%s: %d allocs/op, %d B/op, %d ns/op", e.Name, e.After.AllocsPerOp, e.After.BytesPerOp, e.After.NsPerOp)
	}
}
