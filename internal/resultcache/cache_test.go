package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/diskio"
)

// key returns a realistic cache key: hex SHA-256, like sched.CellDigest.
func key(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func mustOpen(t *testing.T, dir string, opts Options) *Cache {
	t.Helper()
	c, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return c
}

func TestRoundTrip(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	k := key("cell-1")
	payload := []byte(`{"instances":100,"violations":3}`)

	if _, hit, corrupt := c.Get(k); hit || corrupt {
		t.Fatalf("Get on empty cache: hit=%v corrupt=%v", hit, corrupt)
	}
	c.Put(k, payload)
	got, hit, corrupt := c.Get(k)
	if !hit || corrupt {
		t.Fatalf("Get after Put: hit=%v corrupt=%v", hit, corrupt)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %s want %s", got, payload)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Corrupt != 0 || st.Degraded {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPayloadCanonicalized(t *testing.T) {
	// Whitespace variants of the same JSON document must store — and
	// serve — identical canonical bytes, or a warm run could differ from
	// a cold one by formatting alone.
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	k := key("cell-ws")
	c.Put(k, []byte(" {\n  \"a\": 1 }\n"))
	got, hit, _ := c.Get(k)
	if !hit || string(got) != `{"a":1}` {
		t.Fatalf("canonical payload: hit=%v got=%q", hit, got)
	}
}

// TestCorruptEveryOffset is the verify-on-read property: a single bit
// flipped at ANY byte offset of a published entry must be detected,
// quarantined into corrupt/, and reported as a recompute — never served
// as a hit, never surfaced as an error.
func TestCorruptEveryOffset(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	k := key("cell-corrupt")
	c.Put(k, []byte(`{"result":"paper-figure-4","count":42}`))
	objPath := filepath.Join(dir, "objects", k)
	pristine, err := os.ReadFile(objPath)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(pristine); off++ {
		mutated := append([]byte(nil), pristine...)
		mutated[off] ^= 0x40
		if bytes.Equal(mutated, pristine) {
			continue
		}
		if err := os.WriteFile(objPath, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		payload, hit, corrupt := c.Get(k)
		if hit || payload != nil {
			t.Fatalf("offset %d: flipped entry served as a hit (payload %q)", off, payload)
		}
		if !corrupt {
			t.Fatalf("offset %d: flipped entry not reported corrupt", off)
		}
		if _, err := os.Stat(objPath); !os.IsNotExist(err) {
			t.Fatalf("offset %d: corrupted entry still in objects/ (err=%v)", off, err)
		}
		qPath := filepath.Join(dir, "corrupt", k)
		if _, err := os.Stat(qPath); err != nil {
			t.Fatalf("offset %d: no quarantined copy: %v", off, err)
		}
		os.Remove(qPath)
		if err := os.WriteFile(objPath, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The pristine entry still verifies after all that.
	if _, hit, corrupt := c.Get(k); !hit || corrupt {
		t.Fatalf("pristine entry after corruption sweep: hit=%v corrupt=%v", hit, corrupt)
	}
}

func TestVersionSkewQuarantined(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	k := key("cell-future")
	// A well-formed envelope from a future format version: digest and
	// key check out, but the version does not — readers must refuse it.
	payload := []byte(`{"x":1}`)
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(map[string]any{
		"format":         FormatVersion + 1,
		"key":            k,
		"payload":        json.RawMessage(payload),
		"payload_sha256": hex.EncodeToString(sum[:]),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "objects", k), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, hit, corrupt := c.Get(k); hit || !corrupt {
		t.Fatalf("future-format entry: hit=%v corrupt=%v", hit, corrupt)
	}
}

func TestWrongKeyQuarantined(t *testing.T) {
	// An entry copied (or hard-linked) to the wrong name must not serve:
	// the embedded key is part of the verification.
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	k1, k2 := key("cell-a"), key("cell-b")
	c.Put(k1, []byte(`{"a":1}`))
	data, err := os.ReadFile(filepath.Join(dir, "objects", k1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "objects", k2), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, hit, corrupt := c.Get(k2); hit || !corrupt {
		t.Fatalf("misfiled entry: hit=%v corrupt=%v", hit, corrupt)
	}
	if _, hit, _ := c.Get(k1); !hit {
		t.Fatal("original entry lost")
	}
}

// TestConcurrentSameKeyWriters races many writers and readers of the
// same key (run under -race). The key is a content address of the
// cell's inputs, so every writer carries identical bytes; exactly one
// publication must win and every read must verify.
func TestConcurrentSameKeyWriters(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	k := key("cell-race")
	payload := []byte(`{"v":"identical-by-construction"}`)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c.Put(k, payload)
				if got, hit, corrupt := c.Get(k); hit {
					if corrupt || !bytes.Equal(got, payload) {
						t.Errorf("racing Get: corrupt=%v payload=%q", corrupt, got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Puts != 1 {
		t.Fatalf("want exactly one winning publication, got %d", st.Puts)
	}
	if _, hit, corrupt := c.Get(k); !hit || corrupt {
		t.Fatalf("final Get: hit=%v corrupt=%v", hit, corrupt)
	}
}

// TestCompactionDeterministic pins the LRU pass: with a fake clock
// assigning each entry a distinct recency, reopening under a byte
// budget evicts exactly the oldest entries, in a fixed order.
func TestCompactionDeterministic(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	c := mustOpen(t, dir, Options{Clock: clk})
	keys := make([]string, 5)
	var entrySize int64
	for i := range keys {
		keys[i] = key(fmt.Sprintf("cell-%d", i))
		clk.Advance(time.Minute)
		c.Put(keys[i], []byte(fmt.Sprintf(`{"i":%d}`, i)))
		info, err := os.Stat(filepath.Join(dir, "objects", keys[i]))
		if err != nil {
			t.Fatal(err)
		}
		entrySize = info.Size()
	}
	// A Get refreshes recency: touch the oldest entry so it survives a
	// pass that would otherwise evict it first.
	clk.Advance(time.Hour)
	if _, hit, _ := c.Get(keys[0]); !hit {
		t.Fatal("warm Get missed")
	}

	// Budget for two entries: survivors must be the touched keys[0] and
	// the most recently published keys[4].
	c2 := mustOpen(t, dir, Options{Clock: clk, MaxBytes: 2 * entrySize})
	if st := c2.Stats(); st.Evicted != 3 {
		t.Fatalf("evicted %d entries, want 3", st.Evicted)
	}
	for i, k := range keys {
		_, hit, _ := c2.Get(k)
		want := i == 0 || i == 4
		if hit != want {
			t.Fatalf("entry %d survival: hit=%v want=%v", i, hit, want)
		}
	}

	// Determinism: rebuilding the same directory state and compacting
	// again evicts the same population.
	dir2 := t.TempDir()
	clk2 := clock.NewFake(time.Unix(1_700_000_000, 0))
	c3 := mustOpen(t, dir2, Options{Clock: clk2})
	for i, k := range keys {
		clk2.Advance(time.Minute)
		c3.Put(k, []byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	clk2.Advance(time.Hour)
	c3.Get(keys[0])
	c4 := mustOpen(t, dir2, Options{MaxBytes: 2 * entrySize})
	for i, k := range keys {
		_, hit, _ := c4.Get(k)
		want := i == 0 || i == 4
		if hit != want {
			t.Fatalf("replayed compaction, entry %d: hit=%v want=%v", i, hit, want)
		}
	}
}

func TestTmpLeftoversRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir, Options{})
	// A writer that died mid-publication leaves key.tmp behind.
	tmp := filepath.Join(dir, "objects", key("cell-dead")+".tmp")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustOpen(t, dir, Options{})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp leftover survived reopen: %v", err)
	}
}

func TestOpenFailsFastOnMisconfiguration(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(file, Options{}); err == nil {
		t.Fatal("Open over a plain file: want error, got nil")
	}
}

func TestStorageErrorDegradesNotFails(t *testing.T) {
	// ENOSPC at every boundary: open-time and steady-state failures must
	// both resolve to a usable pass-through cache, never an error.
	t.Run("at open", func(t *testing.T) {
		ffs := diskio.NewFaultFS(diskio.OS{}, 3)
		ffs.FailFrom(1, syscall.ENOSPC)
		c, err := Open(t.TempDir(), Options{FS: ffs})
		if err != nil {
			t.Fatalf("full disk at open must degrade, got error: %v", err)
		}
		if c.Degraded() == nil {
			t.Fatal("cache not degraded")
		}
		c.Put(key("k"), []byte(`{}`))
		if _, hit, corrupt := c.Get(key("k")); hit || corrupt {
			t.Fatalf("degraded cache must pass through: hit=%v corrupt=%v", hit, corrupt)
		}
	})
	t.Run("mid run", func(t *testing.T) {
		ffs := diskio.NewFaultFS(diskio.OS{}, 3)
		c, err := Open(t.TempDir(), Options{FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		k := key("cell-enospc")
		c.Put(k, []byte(`{"ok":true}`))
		if _, hit, _ := c.Get(k); !hit {
			t.Fatal("warm Get before the fault missed")
		}
		ffs.FailFrom(ffs.Ops()+1, syscall.ENOSPC)
		// The next touch or publication trips the sticky degradation...
		c.Get(k)
		c.Put(key("cell-other"), []byte(`{}`))
		if c.Degraded() == nil {
			t.Fatal("persistent ENOSPC did not degrade the cache")
		}
		// ...and from then on everything is a silent pass-through.
		if _, hit, corrupt := c.Get(k); hit || corrupt {
			t.Fatalf("degraded Get: hit=%v corrupt=%v", hit, corrupt)
		}
		st := c.Stats()
		if !st.Degraded || st.Err == "" {
			t.Fatalf("stats must report degradation: %+v", st)
		}
	})
}

func TestCrashedFSIsNotDegradation(t *testing.T) {
	// A frozen (crash-simulated) filesystem is not a storage error: ops
	// just miss or drop, and the cache does NOT flip its sticky
	// degradation — a restarted process gets a healthy cache over the
	// surviving bytes.
	ffs := diskio.NewFaultFS(diskio.OS{}, 3)
	c, err := Open(t.TempDir(), Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	k := key("cell-crash")
	c.Put(k, []byte(`{"ok":true}`))
	ffs.CrashAfter(ffs.Ops() + 1)
	c.Put(key("other"), []byte(`{}`)) // consumes the crash point
	if _, hit, corrupt := c.Get(k); hit || corrupt {
		t.Fatalf("frozen-FS Get: hit=%v corrupt=%v", hit, corrupt)
	}
	if c.Degraded() != nil {
		t.Fatalf("crash must not degrade: %v", c.Degraded())
	}
}

func TestOversizedPayloadRefused(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	big := bytes.Repeat([]byte("a"), 1<<25)
	payload := append(append([]byte(`{"blob":"`), big...), []byte(`"}`)...)
	c.Put(key("cell-huge"), payload)
	if st := c.Stats(); st.Puts != 0 {
		t.Fatalf("oversized payload published: %+v", st)
	}
}

func TestNonJSONPayloadRefused(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	c.Put(key("cell-garbage"), []byte("not json"))
	if st := c.Stats(); st.Puts != 0 {
		t.Fatalf("non-JSON payload published: %+v", st)
	}
}
