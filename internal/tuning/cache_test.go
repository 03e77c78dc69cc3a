package tuning

import (
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sched"
)

// memCache is an in-memory sched.ResultCache that keeps every payload
// it is given.
type memCache struct {
	mu      sync.Mutex
	entries map[string][]byte
	hits    int
}

func (c *memCache) Get(key string) ([]byte, bool, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	payload, ok := c.entries[key]
	if ok {
		c.hits++
	}
	return payload, ok, false
}

func (c *memCache) Put(key string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = append([]byte(nil), payload...)
}

func (c *memCache) Degraded() error { return nil }

// TestCachePayloadHoldsOnlyMeasurements: a tuning cell caches the
// fields its run measured and nothing the cell key already determines,
// and a warm re-run served from those entries alone still emits the
// cache-off dataset byte for byte. The fleet is faulty so that some
// cells discard iterations and the optional key is exercised too. One
// worker keeps the breaker from running cells it later quarantines,
// whose measurements would be cached without becoming records.
func TestCachePayloadHoldsOnlyMeasurements(t *testing.T) {
	cfg, tests := campaignConfig()
	fm := gpu.UniformFaults(cfg.Seed, 0.3)
	cfg.Faults = &fm
	opts := RunOptions{Workers: 1, Breaker: &sched.BreakerOptions{}}
	off, err := RunCampaign(cfg, tests, opts)
	if err != nil {
		t.Fatal(err)
	}
	cache := &memCache{entries: map[string][]byte{}}
	opts.Cache = cache
	cold, err := RunCampaign(cfg, tests, opts)
	if err != nil {
		t.Fatal(err)
	}
	datasetsIdentical(t, off, cold, "cache off vs cold")
	if len(cache.entries) != len(off.Records) {
		t.Fatalf("%d cache entries for %d records", len(cache.entries), len(off.Records))
	}

	required := []string{"instances", "iterations", "sim_seconds", "target_count", "target_rate", "violations"}
	withDiscarded := 0
	for key, payload := range cache.entries {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(payload, &fields); err != nil {
			t.Fatalf("entry %s: %v", key, err)
		}
		if _, ok := fields["discarded"]; ok {
			withDiscarded++
			delete(fields, "discarded")
		}
		names := make([]string, 0, len(fields))
		for name := range fields {
			names = append(names, name)
		}
		sort.Strings(names)
		if strings.Join(names, ",") != strings.Join(required, ",") {
			t.Fatalf("entry %s holds %v, want %v (+ discarded)", key, names, required)
		}
	}
	wantDiscarded := 0
	for _, r := range off.Records {
		if r.Discarded > 0 {
			wantDiscarded++
		}
	}
	if wantDiscarded == 0 {
		t.Fatal("test vacuous: no cell discarded an iteration")
	}
	if withDiscarded != wantDiscarded {
		t.Fatalf("%d entries carry discarded, want %d", withDiscarded, wantDiscarded)
	}

	warm, err := RunCampaign(cfg, tests, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cache.hits != len(off.Records) {
		t.Fatalf("warm run hit %d entries, want %d", cache.hits, len(off.Records))
	}
	datasetsIdentical(t, off, warm, "cache off vs warm")
}

// TestCacheSaltVersioned: the salt names the cached value's layout, so
// a cache filled by a build that cached whole Records — whose salt for
// the same Config is captured below — can never serve a measurement
// entry to it or be served one. The Config part of the salt is
// unchanged.
func TestCacheSaltVersioned(t *testing.T) {
	const wholeRecordSalt = `{"config":{"Environments":1,"SITEIterations":1,"PTEIterations":1,"PTEWorkgroups":8,"PTEWorkgroupSize":16,"Scale":{"MinTestingWG":2,"MaxTestingWG":16,"MinWGSizeLog2":3,"MaxWGSizeLog2":6,"MaxStressWG":8,"MaxStressIters":24,"MaxPreStressIters":8},"Devices":["AMD"],"Seed":2023}}`
	cfg, _ := campaignConfig()
	cfg.Environments = 1
	cfg.SITEIterations = 1
	cfg.PTEIterations = 1
	cfg.Devices = []string{"AMD"}
	salt, err := (&Campaign{cfg: cfg}).CacheSalt(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if salt == wholeRecordSalt {
		t.Fatal("salt equals the whole-record layout's salt")
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal([]byte(salt), &fields); err != nil {
		t.Fatal(err)
	}
	if string(fields["payload"]) != `"`+cachePayload+`"` {
		t.Fatalf("salt payload %s, want %q", fields["payload"], cachePayload)
	}
	delete(fields, "payload")
	rest, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != wholeRecordSalt {
		t.Fatalf("salt without its payload field drifted:\n%s\nwant\n%s", rest, wholeRecordSalt)
	}
}
