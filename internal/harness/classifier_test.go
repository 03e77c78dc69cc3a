package harness

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/litmus"
	"repro/internal/mm"
	"repro/internal/xrand"
)

func TestClassifierMemoizes(t *testing.T) {
	c := &Classifier{}
	test := litmus.CoRR()
	o := litmus.Outcome{Regs: []mm.Val{0, 0}, Final: []mm.Val{1}}
	tgt1, vio1, err := c.Classify(test, o)
	if err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := c.Stats()
	if hits0 != 0 || misses0 != 1 {
		t.Fatalf("after first classify: hits=%d misses=%d", hits0, misses0)
	}
	tgt2, vio2, err := c.Classify(test, o)
	if err != nil {
		t.Fatal(err)
	}
	if tgt1 != tgt2 || vio1 != vio2 {
		t.Fatal("memoized classification differs")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("after second classify: hits=%d misses=%d", hits, misses)
	}
	// The memoized verdict matches a direct classification.
	verdict, err := test.Classify(o)
	if err != nil {
		t.Fatal(err)
	}
	if vio1 != !verdict.Allowed || tgt1 != test.Target.Matches(o) {
		t.Fatal("cached classification wrong")
	}
}

func TestClassifierKeyedByTest(t *testing.T) {
	c := &Classifier{}
	corr, coww := litmus.CoRR(), litmus.CoWW()
	// Same histogram key can classify differently under different
	// tests; the cache must not cross-contaminate.
	if _, _, err := c.Classify(corr, litmus.Outcome{Regs: []mm.Val{1, 0}, Final: []mm.Val{1}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Classify(coww, litmus.Outcome{Final: []mm.Val{2}}); err != nil {
		t.Fatal(err)
	}
	_, misses := c.Stats()
	if misses != 2 {
		t.Fatalf("misses = %d, want 2 (separate per-test caches)", misses)
	}
}

func TestClassifierConcurrent(t *testing.T) {
	c := &Classifier{}
	test := litmus.CoRR()
	outcomes := []litmus.Outcome{
		{Regs: []mm.Val{0, 0}, Final: []mm.Val{1}},
		{Regs: []mm.Val{1, 1}, Final: []mm.Val{1}},
		{Regs: []mm.Val{1, 0}, Final: []mm.Val{1}},
		{Regs: []mm.Val{0, 1}, Final: []mm.Val{1}},
	}
	want := make([][2]bool, len(outcomes))
	for i, o := range outcomes {
		tgt, vio, err := c.Classify(test, o)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = [2]bool{tgt, vio}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				o := outcomes[i%len(outcomes)]
				tgt, vio, err := c.Classify(test, o)
				if err != nil {
					t.Error(err)
					return
				}
				if w := want[i%len(outcomes)]; tgt != w[0] || vio != w[1] {
					t.Errorf("concurrent classification diverged for %s", o.Key())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestClassifierConcurrentMisses: workers racing on a cold memo each
// see every verdict correct, and each distinct outcome is classified,
// and counted as a miss, exactly once: a miss re-checks the latest map
// under the test's mutex before classifying.
func TestClassifierConcurrentMisses(t *testing.T) {
	c := &Classifier{}
	test := litmus.CoRR()
	var outcomes []litmus.Outcome
	for _, r0 := range []mm.Val{0, 1} {
		for _, r1 := range []mm.Val{0, 1} {
			for _, f := range []mm.Val{0, 1} {
				outcomes = append(outcomes, litmus.Outcome{Regs: []mm.Val{r0, r1}, Final: []mm.Val{f}})
			}
		}
	}
	want := make([][2]bool, len(outcomes))
	for i, o := range outcomes {
		v, err := test.Classify(o)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = [2]bool{test.Target.Matches(o), !v.Allowed}
	}
	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds*len(outcomes); i++ {
				k := (i + w*3) % len(outcomes)
				tgt, vio, err := c.Classify(test, outcomes[k])
				if err != nil {
					t.Error(err)
					return
				}
				if tgt != want[k][0] || vio != want[k][1] {
					t.Errorf("worker %d: %s classified (%v, %v), want %v", w, outcomes[k].Key(), tgt, vio, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	hits, misses := c.Stats()
	if misses != int64(len(outcomes)) {
		t.Fatalf("misses = %d, want one per distinct outcome (%d)", misses, len(outcomes))
	}
	if total := int64(workers * rounds * len(outcomes)); hits+misses != total {
		t.Fatalf("hits+misses = %d, want %d classifications", hits+misses, total)
	}
}

// TestRunnerStatsCountEveryOutcome: runners on several goroutines that
// share a classifier add their hits and misses once per RunInto, and
// the totals still count every classified instance once, with one miss
// per distinct outcome.
func TestRunnerStatsCountEveryOutcome(t *testing.T) {
	c := &Classifier{}
	test := litmus.CoRR()
	prof, _ := gpu.ProfileByName("Intel")
	bugs := gpu.Bugs{CoherenceRR: true, CoherenceRRProb: 1, CoherenceRRPressure: 2}
	results := make([]*Result, 4)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dev, err := gpu.NewDevice(prof, bugs)
			if err != nil {
				t.Error(err)
				return
			}
			r, err := NewRunner(dev, PTEBaseline(4, 16))
			if err != nil {
				t.Error(err)
				return
			}
			r.Classifier = c
			results[w], err = r.RunCtx(context.Background(), test, 3, xrand.New(uint64(w+1)))
			if err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	instances := 0
	all := litmus.NewHistogram()
	for _, res := range results {
		instances += res.Instances
		all.Merge(res.Hist)
	}
	hits, misses := c.Stats()
	if hits+misses != int64(instances) {
		t.Fatalf("hits+misses = %d, want one per instance (%d)", hits+misses, instances)
	}
	if misses != int64(all.Distinct()) || misses < 2 {
		t.Fatalf("misses = %d, want one per distinct outcome (%d, at least 2)", misses, all.Distinct())
	}
}

// TestRunnerSharesClassifier checks two runners reuse classifications
// through the shared classifier.
func TestRunnerSharesClassifier(t *testing.T) {
	c := &Classifier{}
	test := litmus.CoRR()
	prof, _ := gpu.ProfileByName("AMD")
	for i := 0; i < 2; i++ {
		dev, err := gpu.NewDevice(prof, gpu.Bugs{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(dev, SITEBaseline())
		if err != nil {
			t.Fatal(err)
		}
		r.Classifier = c
		if _, err := r.RunCtx(context.Background(), test, 5, xrand.New(7)); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := c.Stats()
	if misses == 0 || hits == 0 {
		t.Fatalf("classifier unused: hits=%d misses=%d", hits, misses)
	}
	// The second runner saw only outcomes the first had classified
	// (identical seed), so misses cannot exceed the distinct outcomes
	// of one run, and hits must cover everything else.
	if hits < misses {
		t.Fatalf("expected hit-dominated workload: hits=%d misses=%d", hits, misses)
	}
}

func TestResultMerge(t *testing.T) {
	mkHist := func(o litmus.Outcome, target, violation bool, n int) *litmus.Histogram {
		h := litmus.NewHistogram()
		h.AddN(o, target, violation, n)
		return h
	}
	oViol := litmus.Outcome{Regs: []mm.Val{1, 0}, Final: []mm.Val{1}}
	oOK := litmus.Outcome{Regs: []mm.Val{0, 0}, Final: []mm.Val{1}}
	a := &Result{
		TestName: "CoRR", Iterations: 2, Instances: 10,
		SimSeconds: 1.5,
		Hist:       mkHist(oOK, false, false, 10),
	}
	b := &Result{
		TestName: "CoRR", Iterations: 3, Instances: 20,
		SimSeconds:     2.5,
		Hist:           mkHist(oViol, true, true, 4),
		FirstViolation: &oViol,
	}
	b.TargetCount, b.Violations = 4, 4
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Iterations != 5 || a.Instances != 30 {
		t.Fatalf("counts: %+v", a)
	}
	if a.SimSeconds != 4.0 {
		t.Fatalf("simulated seconds: %v", a.SimSeconds)
	}
	if a.TargetCount != 4 || a.Violations != 4 {
		t.Fatalf("derived counts: target=%d violations=%d", a.TargetCount, a.Violations)
	}
	if a.Hist.Total() != 14 || a.Hist.Count(oViol.Key()) != 4 {
		t.Fatalf("histogram: total=%d", a.Hist.Total())
	}
	if a.FirstViolation == nil || a.FirstViolation.Key() != oViol.Key() {
		t.Fatal("FirstViolation not taken from other")
	}
	// Earliest-in-merge-order wins: merging another violating result
	// must not replace it.
	oOther := litmus.Outcome{Regs: []mm.Val{1, 1}, Final: []mm.Val{1}}
	c := &Result{TestName: "CoRR", Hist: mkHist(oOther, false, true, 1), FirstViolation: &oOther}
	if err := a.Merge(c); err != nil {
		t.Fatal(err)
	}
	if a.FirstViolation.Key() != oViol.Key() {
		t.Fatal("FirstViolation overwritten by later merge")
	}
	// Cross-test merges are rejected.
	if err := a.Merge(&Result{TestName: "MP"}); err == nil {
		t.Fatal("cross-test merge accepted")
	}
	// Merging nil is a no-op.
	if err := a.Merge(nil); err != nil {
		t.Fatal(err)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	o := litmus.Outcome{Regs: []mm.Val{1, 0}, Final: []mm.Val{1}}
	h := litmus.NewHistogram()
	h.AddN(o, true, true, 3)
	h.AddN(litmus.Outcome{Regs: []mm.Val{0, 0}, Final: []mm.Val{1}}, false, false, 7)
	r := &Result{
		TestName: "CoRR", IsMutant: true, Mutator: "reversing po-loc",
		Iterations: 2, Instances: 10, TargetCount: 3, Violations: 3,
		SimSeconds: 0.125,
		Hist:       h, FirstViolation: &o,
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.TestName != r.TestName || back.TargetCount != 3 || back.SimSeconds != 0.125 {
		t.Fatalf("scalar fields lost: %+v", back)
	}
	if back.Hist == nil || back.Hist.Total() != 10 || back.Hist.TargetCount() != 3 ||
		back.Hist.Violations() != 3 || back.Hist.Count(o.Key()) != 3 {
		t.Fatalf("histogram lost: %+v", back.Hist)
	}
	if back.FirstViolation == nil || back.FirstViolation.Key() != o.Key() {
		t.Fatal("FirstViolation lost")
	}
	// Marshaling the restored result reproduces the original bytes —
	// the byte-identical checkpoint-replay property.
	raw2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Fatalf("round trip not byte-identical:\n%s\n%s", raw, raw2)
	}
}
