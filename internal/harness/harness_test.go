package harness

import (
	"context"
	"testing"

	"repro/internal/gpu"
	"repro/internal/litmus"
	"repro/internal/mutation"
	"repro/internal/xrand"
)

func device(t testing.TB, name string, bugs gpu.Bugs) *gpu.Device {
	t.Helper()
	p, ok := gpu.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	d, err := gpu.NewDevice(p, bugs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// smallPTE is a scaled-down parallel environment for unit tests.
func smallPTE() Params {
	p := PTEBaseline(8, 16) // 128 instances
	return p
}

// stressedPTE adds stress to the small PTE.
func stressedPTE() Params {
	p := smallPTE()
	p.MaxWorkgroups = p.TestingWorkgroups + 4
	p.MemStressPct = 100
	p.MemStressIters = 8
	p.MemStressPattern = StoreLoad
	p.PreStressPct = 80
	p.PreStressIters = 2
	p.MemStride = 2
	p.MemLocOffset = 1
	return p
}

// stressedSITE is a single-instance environment with stress.
func stressedSITE() Params {
	p := SITEBaseline()
	p.MaxWorkgroups = 12
	p.MemStressPct = 100
	p.MemStressIters = 12
	p.PreStressPct = 100
	p.PreStressIters = 3
	p.MemStride = 2
	p.MemLocOffset = 1
	return p
}

func TestParamsValidate(t *testing.T) {
	good := stressedPTE()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"no testing wgs", func(p *Params) { p.TestingWorkgroups = 0 }},
		{"max < testing", func(p *Params) { p.MaxWorkgroups = p.TestingWorkgroups - 1 }},
		{"zero wg size", func(p *Params) { p.WorkgroupSize = 0 }},
		{"zero stride", func(p *Params) { p.MemStride = 0 }},
		{"offset >= stride", func(p *Params) { p.MemLocOffset = p.MemStride }},
		{"zero scratch", func(p *Params) { p.ScratchMemWords = 0 }},
		{"zero line", func(p *Params) { p.StressLineSize = 0 }},
		{"too many lines", func(p *Params) { p.StressTargetLines = p.ScratchMemWords }},
		{"bad pct", func(p *Params) { p.ShufflePct = 101 }},
		{"negative iters", func(p *Params) { p.MemStressIters = -1 }},
	}
	for _, c := range cases {
		p := good
		c.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestParamsValidateEnums: every enum field accepts exactly its
// declared constants. An unknown stress pattern used to validate and
// then silently emit no stress (round-robin) or run as LoadLoad
// (chunked).
func TestParamsValidateEnums(t *testing.T) {
	cases := []struct {
		name  string
		set   func(*Params, int)
		valid []int
	}{
		{"Scope", func(p *Params, v int) { p.Scope = Scope(v) },
			[]int{int(InterWorkgroup), int(IntraWorkgroup)}},
		{"StressStrategy", func(p *Params, v int) { p.StressStrategy = StressStrategy(v) },
			[]int{int(RoundRobin), int(Chunked)}},
		{"MemStressPattern", func(p *Params, v int) { p.MemStressPattern = StressPattern(v) },
			[]int{int(StoreStore), int(StoreLoad), int(LoadStore), int(LoadLoad)}},
		{"PreStressPattern", func(p *Params, v int) { p.PreStressPattern = StressPattern(v) },
			[]int{int(StoreStore), int(StoreLoad), int(LoadStore), int(LoadLoad)}},
	}
	for _, c := range cases {
		for v := -1; v <= 9; v++ {
			p := stressedPTE()
			c.set(&p, v)
			want := false
			for _, ok := range c.valid {
				want = want || v == ok
			}
			if err := p.Validate(); (err == nil) != want {
				t.Errorf("%s=%d: Validate() = %v, want valid=%v", c.name, v, err, want)
			}
		}
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, p := range []Params{SITEBaseline(), PTEBaseline(16, 32), smallPTE(), stressedPTE(), stressedSITE()} {
		if err := p.Validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
	}
}

func TestRandomParamsAlwaysValid(t *testing.T) {
	rng := xrand.New(123)
	for i := 0; i < 500; i++ {
		p := Random(rng, i%2 == 0, DefaultScale())
		if err := p.Validate(); err != nil {
			t.Fatalf("draw %d invalid: %v\n%+v", i, err, p)
		}
	}
}

func TestAffinePermIsBijection(t *testing.T) {
	rng := xrand.New(5)
	for _, n := range []int{1, 2, 7, 128, 300} {
		perm := newAffinePerm(n, rng)
		seen := make([]bool, n)
		for v := 0; v < n; v++ {
			w := perm.apply(v)
			if w < 0 || w >= n || seen[w] {
				t.Fatalf("n=%d: not a bijection at %d", n, v)
			}
			seen[w] = true
		}
		// Composition stays a bijection.
		seen2 := make([]bool, n)
		for v := 0; v < n; v++ {
			w := perm.applyN(v, 2)
			if seen2[w] {
				t.Fatalf("n=%d: squared permutation collides", n)
			}
			seen2[w] = true
		}
	}
}

// TestPlanCoversAllInstances: every instance's every register must be
// written by exactly one thread's program, and every role must appear.
func TestPlanCoversAllInstances(t *testing.T) {
	suite := mutation.MustGenerate()
	rng := xrand.New(9)
	p := stressedPTE()
	for _, name := range []string{"CoRR", "MP", "MP-relacq", "2+2W-CO", "CoWW-mutant", "SB-relacq-rmw"} {
		test, ok := suite.ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		plan, err := buildIteration(test, &p, rng)
		if err != nil {
			t.Fatal(err)
		}
		if plan.instances != p.TestingWorkgroups*p.WorkgroupSize {
			t.Fatalf("%s: %d instances, want %d", name, plan.instances, p.TestingWorkgroups*p.WorkgroupSize)
		}
		// Count role instructions per instance via address usage.
		memOps := map[uint32]int{}
		for _, prog := range plan.spec.Programs {
			for _, in := range prog {
				if in.Op == gpu.OpLoad || in.Op == gpu.OpStore || in.Op == gpu.OpExchange {
					memOps[in.Addr]++
				}
			}
		}
		for i := 0; i < plan.instances; i++ {
			want := map[uint32]int{}
			for _, th := range test.Threads {
				for _, li := range th.Instrs {
					if li.Op != litmus.OpFence {
						want[plan.locAddr[i][li.Loc]]++
					}
				}
			}
			for addr, n := range want {
				if memOps[addr] != n {
					t.Fatalf("%s instance %d: addr %d has %d test ops, want %d",
						name, i, addr, memOps[addr], n)
				}
			}
		}
	}
}

// TestInstanceAddressesDisjoint: no two instances may share a location
// address, and x/y regions must not overlap.
func TestInstanceAddressesDisjoint(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	rng := xrand.New(11)
	for trial := 0; trial < 20; trial++ {
		p := Random(rng, true, DefaultScale())
		plan, err := buildIteration(test, &p, rng)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint32]bool{}
		for i := 0; i < plan.instances; i++ {
			for _, a := range plan.locAddr[i] {
				if seen[a] {
					t.Fatalf("trial %d: address %d assigned twice", trial, a)
				}
				seen[a] = true
			}
		}
	}
}

// TestSITEPlacesRolesInDistinctWorkgroups checks the inter-workgroup
// scope requirement.
func TestSITEPlacesRolesInDistinctWorkgroups(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP-relacq")
	p := stressedSITE()
	rng := xrand.New(13)
	plan, err := buildIteration(test, &p, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly len(test.Threads) programs contain test (non-stress) ops,
	// each in a different workgroup.
	wgs := map[int]bool{}
	count := 0
	for tid, prog := range plan.spec.Programs {
		hasTest := false
		for _, in := range prog {
			if in.Op == gpu.OpLoad || in.Op == gpu.OpStore || in.Op == gpu.OpExchange || in.Op == gpu.OpFence {
				hasTest = true
			}
		}
		if hasTest {
			count++
			wgs[tid/p.WorkgroupSize] = true
		}
	}
	if count != len(test.Threads) {
		t.Fatalf("%d testing threads, want %d", count, len(test.Threads))
	}
	if len(wgs) != len(test.Threads) {
		t.Fatalf("testing threads share workgroups: %v", wgs)
	}
}

func TestRunnerDeterministic(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	d := device(t, "AMD", gpu.Bugs{})
	r, err := NewRunner(d, stressedPTE())
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.RunCtx(context.Background(), test, 3, xrand.New(99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunCtx(context.Background(), test, 3, xrand.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if a.TargetCount != b.TargetCount || a.Violations != b.Violations ||
		a.SimSeconds != b.SimSeconds || a.Instances != b.Instances {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
}

// TestConformanceCleanOnConformantDevices: conformance tests must show
// zero violations on bug-free devices, in both environment families.
func TestConformanceCleanOnConformantDevices(t *testing.T) {
	suite := mutation.MustGenerate()
	d := device(t, "AMD", gpu.Bugs{})
	for _, envName := range []string{"PTE", "SITE"} {
		env := stressedPTE()
		iters := 3
		if envName == "SITE" {
			env = stressedSITE()
			iters = 10
		}
		r, err := NewRunner(d, env)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(7)
		for _, test := range suite.Conformance {
			res, err := r.RunCtx(context.Background(), test, iters, rng)
			if err != nil {
				t.Fatalf("%s/%s: %v", envName, test.Name, err)
			}
			if res.Violations > 0 {
				t.Errorf("%s/%s: %d violations on a conformant device\n%s",
					envName, test.Name, res.Violations, res.Hist)
			}
		}
	}
}

// TestPTEKillsWeakMutants: the parallel environment must kill the
// classic weak-memory mutants on the AMD profile.
func TestPTEKillsWeakMutants(t *testing.T) {
	suite := mutation.MustGenerate()
	d := device(t, "AMD", gpu.Bugs{})
	r, err := NewRunner(d, stressedPTE())
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(21)
	for _, name := range []string{"MP", "SB", "CoRR-mutant"} {
		test, _ := suite.ByName(name)
		res, err := r.RunCtx(context.Background(), test, 10, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.TargetCount == 0 {
			t.Errorf("%s: PTE never killed the mutant in %d instances\n%s",
				name, res.Instances, res.Hist)
		}
		if res.TargetRate() <= 0 {
			t.Errorf("%s: zero target rate", name)
		}
	}
}

// TestFenceDropBugFoundByPTE: the MP-relacq conformance test must fail
// on the AMD device with the fence-dropping compiler bug — the paper's
// headline discovery.
func TestFenceDropBugFoundByPTE(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP-relacq")
	buggy := device(t, "AMD", gpu.Bugs{DropFences: true})
	r, err := NewRunner(buggy, stressedPTE())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunCtx(context.Background(), test, 12, xrand.New(31))
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Fatalf("fence-drop bug not detected in %d instances\n%s", res.Instances, res.Hist)
	}
	if res.TargetCount == 0 {
		t.Fatalf("target MP-relacq behavior not observed\n%s", res.Hist)
	}
}

// TestCoherenceBugFoundOnIntel: the CoRR conformance test must fail on
// the Intel device with the load-load defect under stress.
func TestCoherenceBugFoundOnIntel(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("CoRR")
	buggy := device(t, "Intel", gpu.Bugs{
		CoherenceRR: true, CoherenceRRProb: 0.4, CoherenceRRPressure: 2,
	})
	env := stressedPTE()
	r, err := NewRunner(buggy, env)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunCtx(context.Background(), test, 12, xrand.New(41))
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Fatalf("CoRR bug not detected in %d instances\n%s", res.Instances, res.Hist)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	d := device(t, "AMD", gpu.Bugs{})
	r, err := NewRunner(d, smallPTE())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunCtx(context.Background(), test, 0, xrand.New(1)); err == nil {
		t.Error("accepted zero iterations")
	}
	bad := smallPTE()
	bad.MemStride = 0
	if _, err := NewRunner(d, bad); err == nil {
		t.Error("NewRunner accepted invalid params")
	}
}

func TestResultRates(t *testing.T) {
	r := &Result{TargetCount: 10, Violations: 5, SimSeconds: 2}
	if r.TargetRate() != 5 || r.ViolationRate() != 2.5 {
		t.Fatalf("rates wrong: %v %v", r.TargetRate(), r.ViolationRate())
	}
	empty := &Result{}
	if empty.TargetRate() != 0 || empty.ViolationRate() != 0 {
		t.Fatal("zero-time rates must be 0")
	}
}

func TestStressPatternStrings(t *testing.T) {
	for p, want := range map[StressPattern]string{
		StoreStore: "store-store", StoreLoad: "store-load",
		LoadStore: "load-store", LoadLoad: "load-load",
	} {
		if p.String() != want {
			t.Errorf("%d: %q", p, p.String())
		}
	}
	if RoundRobin.String() != "round-robin" || Chunked.String() != "chunked" {
		t.Error("strategy names wrong")
	}
}

// TestObserverTestRunsUnderPTE: three-role tests (with observers) must
// be schedulable in the parallel environment.
func TestObserverTestRunsUnderPTE(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("2+2W-CO") // 2 workers + observer
	d := device(t, "NVIDIA", gpu.Bugs{})
	r, err := NewRunner(d, smallPTE())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunCtx(context.Background(), test, 2, xrand.New(51))
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != 2*128 {
		t.Fatalf("instances = %d", res.Instances)
	}
	if res.Violations > 0 {
		t.Fatalf("violations on conformant device:\n%s", res.Hist)
	}
}

func BenchmarkPTEIterationMP(b *testing.B) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	d, _ := gpu.NewDevice(gpu.Profiles()[1], gpu.Bugs{}) // AMD
	r, err := NewRunner(d, stressedPTE())
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunCtx(context.Background(), test, 1, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- scope extension and pairing ablation ----

// TestIntraWorkgroupScopeSITE: under the intra-workgroup scope, SITE
// places all roles in workgroup 0.
func TestIntraWorkgroupScopeSITE(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	p := stressedSITE()
	p.Scope = IntraWorkgroup
	p.WorkgroupSize = 4
	rng := xrand.New(3)
	plan, err := buildIteration(test, &p, rng)
	if err != nil {
		t.Fatal(err)
	}
	for tid, prog := range plan.spec.Programs {
		hasTest := false
		for _, in := range prog {
			if in.Op == gpu.OpLoad || in.Op == gpu.OpStore || in.Op == gpu.OpExchange {
				hasTest = true
			}
		}
		if hasTest && tid/p.WorkgroupSize != 0 {
			t.Fatalf("test thread %d outside workgroup 0", tid)
		}
	}
}

// TestIntraWorkgroupScopePTE: each instance's roles stay within one
// workgroup, and the runner produces sane results.
func TestIntraWorkgroupScopePTE(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	p := stressedPTE()
	p.Scope = IntraWorkgroup
	rng := xrand.New(5)
	plan, err := buildIteration(test, &p, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Locate each instance's roles by register ownership and by the
	// address usage of stores; both threads of an instance must share a
	// workgroup.
	for i := 0; i < plan.instances; i++ {
		wg := -1
		for _, ref := range plan.regOf[i] {
			if wg == -1 {
				wg = ref.tid / p.WorkgroupSize
			} else if ref.tid/p.WorkgroupSize != wg {
				t.Fatalf("instance %d roles span workgroups", i)
			}
		}
	}
	d := device(t, "AMD", gpu.Bugs{})
	r, err := NewRunner(d, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunCtx(context.Background(), test, 5, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations > 0 {
		t.Fatalf("intra-workgroup violations on conformant device:\n%s", res.Hist)
	}
}

func TestIntraScopeRequiresWideWorkgroups(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	p := stressedSITE()
	p.Scope = IntraWorkgroup
	p.WorkgroupSize = 1
	if _, err := buildIteration(test, &p, xrand.New(1)); err == nil {
		t.Fatal("narrow workgroup accepted for intra scope")
	}
}

func TestScopeString(t *testing.T) {
	if InterWorkgroup.String() != "inter-workgroup" || IntraWorkgroup.String() != "intra-workgroup" {
		t.Fatal("scope names wrong")
	}
}

// TestNaivePairingStillCoversInstances: the ablation's successor
// mapping is a valid (if ineffective) pairing — every role of every
// instance still runs exactly once.
func TestNaivePairingStillCoversInstances(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	p := stressedPTE()
	p.NaivePairing = true
	plan, err := buildIteration(test, &p, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < plan.instances; i++ {
		for r, ref := range plan.regOf[i] {
			if ref.tid < 0 || ref.tid >= len(plan.spec.Programs) {
				t.Fatalf("instance %d register %d unassigned", i, r)
			}
		}
	}
	// Under naive pairing, thread v's second role belongs to instance
	// v+1 mod n: the reader of instance i is thread i-1.
	d := device(t, "AMD", gpu.Bugs{})
	runner, err := NewRunner(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.RunCtx(context.Background(), test, 2, xrand.New(9)); err != nil {
		t.Fatal(err)
	}
}

// TestObservationsWithinEnumeratedAllowedSet is the end-to-end audit:
// every outcome a conformant device produces must appear in the
// litmus-style enumerated allowed-outcomes table of the test's model.
func TestObservationsWithinEnumeratedAllowedSet(t *testing.T) {
	suite := mutation.MustGenerate()
	d := device(t, "Intel", gpu.Bugs{}) // jittery device, diverse outcomes
	r, err := NewRunner(d, stressedPTE())
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(4)
	for _, name := range []string{"CoRR", "MP", "SB", "MP-relacq", "CoWW", "2+2W", "SB-relacq-rmw"} {
		test, ok := suite.ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		allowed := test.AllowedOutcomes(test.Model)
		res, err := r.RunCtx(context.Background(), test, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Audit the histogram keys against the allowed table.
		for _, oc := range test.EnumerateOutcomes(test.Model) {
			key := oc.Outcome.Key()
			if res.Hist.Count(key) > 0 && !allowed[key] {
				t.Errorf("%s: observed forbidden outcome %s on a conformant device", name, key)
			}
		}
		// Every distinct observed outcome must be in the enumeration's
		// universe at all (no out-of-universe values).
		universe := map[string]bool{}
		for _, oc := range test.EnumerateOutcomes(test.Model) {
			universe[oc.Outcome.Key()] = true
		}
		if got, want := res.Hist.Distinct(), len(universe); got > want {
			t.Errorf("%s: %d distinct outcomes exceeds the %d-outcome universe", name, got, want)
		}
	}
}

// TestExtendedCatalogUnderPTE: the four-role IRIW test schedules under
// the generalized permutation pairing, stays clean on a conformant
// device, and its weak behavior is observable on the jittery profile.
func TestExtendedCatalogUnderPTE(t *testing.T) {
	d := device(t, "Intel", gpu.Bugs{})
	env := stressedPTE()
	r, err := NewRunner(d, env)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(41)
	totalKills := 0
	for _, test := range litmus.ExtendedCatalog() {
		res, err := r.RunCtx(context.Background(), test, 10, rng)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		if res.Violations > 0 {
			t.Errorf("%s: violations on conformant device:\n%s", test.Name, res.Hist)
		}
		totalKills += res.TargetCount
		t.Logf("%-5s kills=%d/%d", test.Name, res.TargetCount, res.Instances)
	}
	if totalKills == 0 {
		t.Error("no extended weak behavior observed at all")
	}
}

func TestBuildKernelExported(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("CoRR")
	env := SITEBaseline()
	spec, err := BuildKernel(test, &env, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := SITEBaseline()
	bad.MemStride = 0
	if _, err := BuildKernel(test, &bad, xrand.New(1)); err == nil {
		t.Fatal("invalid params accepted")
	}
}
