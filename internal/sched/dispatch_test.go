package sched

// Dispatch tests: how pending cells reach the workers. Whatever the
// pool size, every cell the checkpoint does not already hold executes
// exactly once, replayed cells never execute, and the report keeps
// spec order — also when the campaign is cancelled part way through.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/xrand"
)

// halfDoneCheckpoint opens a checkpoint of spec in which every
// even-indexed cell is already done: a collect run whose odd cells
// fail permanently records only the even ones.
func halfDoneCheckpoint(t *testing.T, spec Spec) *Checkpoint {
	t.Helper()
	path := filepath.Join(t.TempDir(), "half.ckpt")
	ck, err := OpenCheckpoint(path, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	odd := make(map[string]bool, len(spec.Cells))
	for i, c := range spec.Cells {
		odd[c.Key] = i%2 == 1
	}
	if _, err := Run(spec, func(_ context.Context, c Cell, _ *xrand.Rand) (string, error) {
		if odd[c.Key] {
			return "", fmt.Errorf("not this run")
		}
		return c.Key, nil
	}, Options[string]{Workers: 2, Collect: true, Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	ck, err = OpenCheckpoint(path, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ck.Close() })
	if got, want := ck.Completed(), (len(spec.Cells)+1)/2; got != want {
		t.Fatalf("checkpoint holds %d cells, want %d", got, want)
	}
	return ck
}

// TestDispatchRunsEachPendingCellOnce: resuming from a half-done
// checkpoint at any worker count — including more workers than cells —
// executes each pending cell exactly once and no replayed cell at all;
// one worker starts the pending cells in spec order; and a cancelled
// run accounts for every pending cell as executed or interrupted.
func TestDispatchRunsEachPendingCellOnce(t *testing.T) {
	const cells = 24
	spec := testSpec(cells)
	var pendingKeys []string
	for i, c := range spec.Cells {
		if i%2 == 1 {
			pendingKeys = append(pendingKeys, c.Key)
		}
	}
	keyExec := func(_ context.Context, c Cell, _ *xrand.Rand) (string, error) { return c.Key, nil }

	for _, workers := range []int{1, 2, 3, 8, 2 * cells} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ck := halfDoneCheckpoint(t, spec)
			var mu sync.Mutex
			runs := map[string]int{}
			var started []string
			rep, err := Run(spec, func(ctx context.Context, c Cell, rng *xrand.Rand) (string, error) {
				mu.Lock()
				runs[c.Key]++
				mu.Unlock()
				return keyExec(ctx, c, rng)
			}, Options[string]{
				Workers:     workers,
				Checkpoint:  ck,
				OnCellStart: func(c Cell) { started = append(started, c.Key) },
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range spec.Cells {
				want := i % 2 // pending cells run once, replayed cells never
				if runs[c.Key] != want {
					t.Errorf("cell %s executed %d times, want %d", c.Key, runs[c.Key], want)
				}
				r := rep.Results[i]
				if r.Cell != c || r.Value != c.Key || r.Err != nil || r.Replayed != (want == 0) {
					t.Errorf("result %d out of spec order or wrong: %+v", i, r)
				}
			}
			if rep.Executed != len(pendingKeys) || rep.Replayed != cells-len(pendingKeys) {
				t.Errorf("counters: executed=%d replayed=%d", rep.Executed, rep.Replayed)
			}
			if len(started) != len(pendingKeys) {
				t.Fatalf("OnCellStart saw %d cells, want %d", len(started), len(pendingKeys))
			}
			if workers == 1 {
				for i, k := range started {
					if k != pendingKeys[i] {
						t.Fatalf("OnCellStart #%d = %s, want %s (spec order)", i, k, pendingKeys[i])
					}
				}
			}
		})
	}

	t.Run("cancelled", func(t *testing.T) {
		const k = 5
		ck := halfDoneCheckpoint(t, spec)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var ran atomic.Int32
		rep, err := RunContext(ctx, spec, func(ctx context.Context, c Cell, rng *xrand.Rand) (string, error) {
			if ran.Add(1) == k {
				cancel()
			}
			return keyExec(ctx, c, rng)
		}, Options[string]{Workers: 2, Checkpoint: ck})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("error does not wrap ErrInterrupted: %v", err)
		}
		if rep.Executed+rep.Interrupted != len(pendingKeys) {
			t.Fatalf("executed %d + interrupted %d != %d pending cells", rep.Executed, rep.Interrupted, len(pendingKeys))
		}
		if rep.Executed < k || rep.Executed != int(ran.Load()) || rep.Failed != 0 {
			t.Fatalf("counters: executed=%d ran=%d failed=%d", rep.Executed, ran.Load(), rep.Failed)
		}
		for i, c := range spec.Cells {
			r := rep.Results[i]
			if r.Cell != c {
				t.Fatalf("result %d is cell %s, want %s (spec order)", i, r.Cell.Key, c.Key)
			}
			switch {
			case i%2 == 0:
				if !r.Replayed || r.Value != c.Key {
					t.Fatalf("replayed cell %d: %+v", i, r)
				}
			case r.Interrupted:
				if !errors.Is(r.Err, ErrInterrupted) {
					t.Fatalf("interrupted cell %d: %+v", i, r)
				}
			default:
				if r.Err != nil || r.Value != c.Key {
					t.Fatalf("executed cell %d: %+v", i, r)
				}
			}
		}
	})
}

// mapCache is an in-memory ResultCache: a lock-guarded map that never
// corrupts or degrades.
type mapCache struct {
	mu      sync.RWMutex
	entries map[string][]byte
}

func (c *mapCache) Get(key string) ([]byte, bool, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	payload, ok := c.entries[key]
	return payload, ok, false
}

func (c *mapCache) Put(key string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = payload
}

func (c *mapCache) Degraded() error { return nil }

// BenchmarkDispatch measures the scheduler's own per-cell cost at two
// workers over 4,096 cells: with a no-op exec, and with every cell a
// hit in an in-memory result cache (digest, lookup, decode). Its
// ns/cell metric is what the pool adds around an instant cell.
func BenchmarkDispatch(b *testing.B) {
	const cells = 4096
	spec := Spec{Name: "dispatch", Seed: 1}
	for i := 0; i < cells; i++ {
		spec.Cells = append(spec.Cells, Cell{Key: fmt.Sprintf("cell-%04d", i), Device: "AMD"})
	}
	noop := func(context.Context, Cell, *xrand.Rand) (int, error) { return 1, nil }
	run := func(b *testing.B, opts Options[int]) {
		opts.Workers = 2
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Run(spec, noop, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
	}
	b.Run("noop", func(b *testing.B) { run(b, Options[int]{}) })
	b.Run("cachehit", func(b *testing.B) {
		cache := &mapCache{entries: map[string][]byte{}}
		opts := Options[int]{Cache: cache, CacheSalt: "bench"}
		if _, err := Run(spec, noop, opts); err != nil {
			b.Fatal(err)
		}
		run(b, opts)
	})
}
