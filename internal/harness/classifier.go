package harness

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/litmus"
)

// Classifier memoizes outcome classification — the axiomatic-checker
// verdict plus the target match — keyed by (test, outcome key). One
// litmus test sees the same few distinct outcomes across thousands of
// instances, iterations and campaign cells, while classifying an
// outcome means reconstructing and checking a candidate execution; the
// classifier pays that cost once per distinct outcome per test for the
// whole process instead of once per Run call.
//
// Tests are keyed by pointer identity: the same *litmus.Test object
// always classifies an outcome the same way, and suite generation hands
// every runner the same test objects, so cache hits span all campaign
// cells that share a suite. The classifier is safe for concurrent use
// by every worker of a campaign.
//
// Sharing rule: each test's verdicts are a copy-on-write map. A
// published map is never written again, so a reader loads it once and
// looks outcomes up with no lock and no shared write; a miss classifies
// under the test's mutex and publishes a copy holding the new verdict.
// Runner.RunInto resolves the test's memo once per call (a memoReader)
// and adds its hits and misses to the counters once per call, so an
// outcome costs one map lookup on memory no worker writes.
type Classifier struct {
	tests  sync.Map // *litmus.Test -> *testMemo
	hits   atomic.Int64
	misses atomic.Int64
}

// testMemo holds one test's classified outcomes (see Classifier's
// sharing rule). mu serializes misses; verdicts is the current map.
type testMemo struct {
	mu       sync.Mutex
	verdicts atomic.Pointer[map[string]outcomeClass]
}

// sharedClassifier is the process-wide instance used by every Runner
// that does not set its own.
var sharedClassifier = &Classifier{}

// SharedClassifier returns the process-wide memoized classifier.
func SharedClassifier() *Classifier { return sharedClassifier }

// Classify returns the cached classification of the outcome under the
// test, computing and memoizing it on first sight.
func (c *Classifier) Classify(test *litmus.Test, o litmus.Outcome) (target, violation bool, err error) {
	rd := c.reader(test)
	cls, err := rd.classify(o, o.AppendKey(nil))
	c.flush(&rd)
	return cls.target, cls.violation, err
}

// memoReader is one caller's view of a test's verdicts: the memo, the
// map last loaded from it, and the hits and misses it has counted, for
// one flush. It belongs to one goroutine.
type memoReader struct {
	test         *litmus.Test
	memo         *testMemo
	verdicts     map[string]outcomeClass
	hits, misses int64
}

// reader resolves the test's memo, creating it on first use, and loads
// its verdicts.
func (c *Classifier) reader(test *litmus.Test) memoReader {
	v, ok := c.tests.Load(test)
	if !ok {
		v, _ = c.tests.LoadOrStore(test, &testMemo{})
	}
	tm := v.(*testMemo)
	return memoReader{test: test, memo: tm, verdicts: tm.load()}
}

// classify returns the outcome's verdict; key must equal
// o.AppendKey(nil). A hit in the loaded map touches no shared memory.
func (r *memoReader) classify(o litmus.Outcome, key []byte) (outcomeClass, error) {
	if cls, ok := r.verdicts[string(key)]; ok {
		r.hits++
		return cls, nil
	}
	cls, hit, err := r.memo.classify(r.test, o, key)
	if hit {
		r.hits++
	} else {
		r.misses++
	}
	r.verdicts = r.memo.load()
	return cls, err
}

// flush adds the reader's hits and misses to the cumulative totals.
func (c *Classifier) flush(r *memoReader) {
	if r.hits != 0 {
		c.hits.Add(r.hits)
	}
	if r.misses != 0 {
		c.misses.Add(r.misses)
	}
}

// Stats reports cumulative cache hits and misses, for observability
// and tests.
func (c *Classifier) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// load returns the memo's current verdicts; the map is read-only. It is
// nil before the first verdict, which reads as empty.
func (tm *testMemo) load() map[string]outcomeClass {
	if p := tm.verdicts.Load(); p != nil {
		return *p
	}
	return nil
}

// classify resolves an outcome the caller's loaded map lacked; key must
// equal o.AppendKey(nil). hit reports that another caller published the
// verdict meanwhile. Otherwise the outcome is classified and a copy of
// the map with its verdict is published; the key string is allocated
// only then.
func (tm *testMemo) classify(test *litmus.Test, o litmus.Outcome, key []byte) (cls outcomeClass, hit bool, err error) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	old := tm.load()
	if cls, ok := old[string(key)]; ok {
		return cls, true, nil
	}
	verdict, err := test.Classify(o)
	if err != nil {
		return outcomeClass{}, false, fmt.Errorf("harness: classify %s: %w", test.Name, err)
	}
	cls = outcomeClass{
		target:    test.Target.Matches(o),
		violation: !verdict.Allowed,
	}
	next := make(map[string]outcomeClass, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[string(key)] = cls
	tm.verdicts.Store(&next)
	return cls, false, nil
}
