package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/diskio"
)

// key returns a realistic cache key: hex SHA-256, like sched's cell digests.
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

// pinnedKey, pinnedPayload and pinnedEntry are an entry captured from
// the FormatVersion 1 publisher: a payload as json.Marshal renders it
// (HTML-escaped, non-ASCII, an escaped quote, empty containers) and the
// exact envelope bytes Put wrote for it. Caches filled by any build
// must keep serving these bytes, and Put must keep writing them.
const (
	pinnedKey     = "5b83d1c703f322cd5fd49cfb68a8b43caacdedee9530b72c3cc702cba59eed7d"
	pinnedPayload = `{"env":{"a":[],"b":{}},"family":"PTE","sim_seconds":0.000125,"test":"MP \"relacq\" \u003cfence\u003e \u0026 é\u2028","violations":3}`
	pinnedEntry   = `{"format":1,"key":"5b83d1c703f322cd5fd49cfb68a8b43caacdedee9530b72c3cc702cba59eed7d","payload":{"env":{"a":[],"b":{}},"family":"PTE","sim_seconds":0.000125,"test":"MP \"relacq\" \u003cfence\u003e \u0026 é\u2028","violations":3},"payload_sha256":"7c254d40034bceb1143c48af7674ed42ea7439884ffb8293ee5f27de1838b940"}`
)

// TestCachePinnedEntryHits: an entry published by an earlier build is
// a verified hit serving exactly its payload.
func TestCachePinnedEntryHits(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	if err := os.WriteFile(filepath.Join(dir, "objects", pinnedKey), []byte(pinnedEntry), 0o644); err != nil {
		t.Fatal(err)
	}
	got, hit, corrupt := c.Get(pinnedKey)
	if !hit || corrupt {
		t.Fatalf("pinned entry: hit=%v corrupt=%v", hit, corrupt)
	}
	if string(got) != pinnedPayload {
		t.Fatalf("pinned payload:\n got %s\nwant %s", got, pinnedPayload)
	}
}

// TestCachePutWritesPinnedEntry: Put lays the pinned payload out as
// exactly the pinned envelope bytes.
func TestCachePutWritesPinnedEntry(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	c.Put(pinnedKey, []byte(pinnedPayload))
	got, err := os.ReadFile(filepath.Join(dir, "objects", pinnedKey))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != pinnedEntry {
		t.Fatalf("published entry:\n got %s\nwant %s", got, pinnedEntry)
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

// TestCacheRelaidEntryQuarantined is the stricter half of
// verify-on-read: an entry whose format, key and digest all check out
// but whose envelope is laid out differently from what Put writes —
// whitespace, reordered fields, an escaped key — is not the entry Put
// published, so it is quarantined and recomputed like any corruption.
func TestCacheRelaidEntryQuarantined(t *testing.T) {
	layouts := map[string]string{
		"indented": strings.Replace(pinnedEntry, `"key":`, `"key": `, 1),
		"reordered": `{"key":"` + pinnedKey + `","format":1,"payload":` + pinnedPayload +
			`,"payload_sha256":"7c254d40034bceb1143c48af7674ed42ea7439884ffb8293ee5f27de1838b940"}`,
		"escaped key":     strings.Replace(pinnedEntry, `"key":"5b`, `"key":"\u0035b`, 1),
		"uppercase sum":   strings.Replace(pinnedEntry, "7c254d", "7C254D", 1),
		"trailing space":  pinnedEntry + " ",
		"trailing member": strings.TrimSuffix(pinnedEntry, "}") + `,"x":1}`,
	}
	for name, data := range layouts {
		if !json.Valid([]byte(data)) {
			t.Fatalf("%s: test envelope is not JSON", name)
		}
		dir := t.TempDir()
		c := mustOpen(t, dir, Options{})
		if err := os.WriteFile(filepath.Join(dir, "objects", pinnedKey), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, hit, corrupt := c.Get(pinnedKey); hit || !corrupt {
			t.Errorf("%s: hit=%v corrupt=%v, want quarantined", name, hit, corrupt)
		}
		if _, err := os.Stat(filepath.Join(dir, "corrupt", pinnedKey)); err != nil {
			t.Errorf("%s: no quarantined copy: %v", name, err)
		}
	}
}

// TestCacheHTMLPayloadRoundTrips: a payload carrying raw <, > and &
// (valid JSON that json.Marshal would have escaped) is stored and
// served byte for byte, so its entry verifies.
func TestCacheHTMLPayloadRoundTrips(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	k := key("cell-html")
	payload := []byte(`{"test":"MP <fence> & co"}`)
	c.Put(k, payload)
	got, hit, corrupt := c.Get(k)
	if !hit || corrupt || !bytes.Equal(got, payload) {
		t.Fatalf("hit=%v corrupt=%v payload %q", hit, corrupt, got)
	}
}

// TestCacheNonHexKeyRefused: Put publishes only lowercase-hex keys,
// the shape of a cell digest; anything else is dropped like a non-JSON
// payload.
func TestCacheNonHexKeyRefused(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	for _, k := range []string{"", "Key", strings.ToUpper(key("cell")), `ab"cd`, "ab/cd", "../x"} {
		c.Put(k, []byte(`{}`))
	}
	if st := c.Stats(); st.Puts != 0 {
		t.Fatalf("non-hex keys published: %+v", st)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "objects"))
	if err != nil || len(ents) != 0 {
		t.Fatalf("objects/ after refused Puts: %v %v", ents, err)
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

// TestCacheRecencyGrain: a hit touches its entry only when the entry's
// mtime is at least recencyGrain older than now. A hit inside the grain
// (or on an entry stamped in the future) leaves the mtime alone and
// makes no metadata write; a hit after it stamps now.
func TestCacheRecencyGrain(t *testing.T) {
	dir := t.TempDir()
	start := time.Unix(1_700_000_000, 0)
	clk := clock.NewFake(start)
	fsys := &opLog{FS: diskio.OS{}}
	c := mustOpen(t, dir, Options{FS: fsys, Clock: clk})
	k := key("recency")
	path := filepath.Join(dir, objectsDir, k)
	fsys.take()
	c.Put(k, []byte(`{"v":1}`))
	if n := countOps(fsys.take(), "chtimes"); n != 1 {
		t.Fatalf("Put made %d Chtimes calls, want 1", n)
	}
	hit := func(wantTouches int, wantMtime time.Time) {
		t.Helper()
		if _, hit, _ := c.Get(k); !hit {
			t.Fatal("Get missed")
		}
		if n := countOps(fsys.take(), "chtimes"); n != wantTouches {
			t.Fatalf("hit at %v made %d Chtimes calls, want %d", clk.Now().Sub(start), n, wantTouches)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if !info.ModTime().Equal(wantMtime) {
			t.Fatalf("mtime %v, want %v", info.ModTime(), wantMtime)
		}
	}
	hit(0, start)
	clk.Advance(recencyGrain - time.Nanosecond)
	hit(0, start)
	clk.Advance(time.Nanosecond)
	hit(1, clk.Now())
	stamped := clk.Now()
	clk.Advance(30 * time.Second)
	hit(0, stamped)
	clk.Advance(time.Hour)
	hit(1, clk.Now())

	future := clk.Now().Add(time.Hour)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	hit(0, future)
}

// plantTmp leaves what a writer that died mid-publication leaves: a
// torn temp file at tmp/<key>.
func plantTmp(t *testing.T, dir string) string {
	t.Helper()
	tmp := filepath.Join(dir, tmpDir, key("cell-dead"))
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	return tmp
}

func TestTmpLeftoversRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir, Options{})
	tmp := plantTmp(t, dir)
	mustOpen(t, dir, Options{})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp leftover survived reopen: %v", err)
	}
}

// TestCrashedPutLeavesTempInTmp: a writer that dies between writing
// its entry and renaming it leaves the temp file in tmp/, not beside
// the entries in objects/, and the next Open removes it.
func TestCrashedPutLeavesTempInTmp(t *testing.T) {
	dir := t.TempDir()
	ffs := diskio.NewFaultFS(diskio.OS{}, 1)
	c := mustOpen(t, dir, Options{FS: ffs})
	// Put's gated operations: create the temp file, write, fsync, and
	// then the rename, where the crash lands.
	ffs.CrashAfter(ffs.Ops() + 4)
	k := key("cell-crash")
	c.Put(k, []byte(`{"v":1}`))
	if !ffs.Crashed() {
		t.Fatal("crash point never reached")
	}
	tmp := filepath.Join(dir, tmpDir, k)
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("crashed Put left no temp file in tmp/: %v", err)
	}
	if ents, err := os.ReadDir(filepath.Join(dir, objectsDir)); err != nil || len(ents) != 0 {
		t.Fatalf("objects/ after a crashed Put: %v %v", ents, err)
	}
	mustOpen(t, dir, Options{})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp leftover survived reopen: %v", err)
	}
}

// opLog records, in order, the calls the cache makes through its
// filesystem seam and on the files it opens, each as "op path".
type opLog struct {
	diskio.FS
	mu  sync.Mutex
	ops []string
}

func (l *opLog) add(op, path string) {
	l.mu.Lock()
	l.ops = append(l.ops, op+" "+path)
	l.mu.Unlock()
}

// take returns the calls recorded since the last take.
func (l *opLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	ops := l.ops
	l.ops = nil
	return ops
}

func (l *opLog) OpenFile(name string, flag int, perm os.FileMode) (diskio.File, error) {
	l.add("open", name)
	f, err := l.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &opLogFile{File: f, log: l}, nil
}

func (l *opLog) Rename(oldpath, newpath string) error {
	l.add("rename", oldpath)
	return l.FS.Rename(oldpath, newpath)
}

func (l *opLog) Remove(name string) error {
	l.add("remove", name)
	return l.FS.Remove(name)
}

func (l *opLog) SyncDir(dir string) error {
	l.add("syncdir", dir)
	return l.FS.SyncDir(dir)
}

func (l *opLog) MkdirAll(path string, perm os.FileMode) error {
	l.add("mkdir", path)
	return l.FS.MkdirAll(path, perm)
}

func (l *opLog) ReadDir(name string) ([]os.DirEntry, error) {
	l.add("readdir", name)
	return l.FS.ReadDir(name)
}

func (l *opLog) Stat(name string) (os.FileInfo, error) {
	l.add("stat", name)
	return l.FS.Stat(name)
}

func (l *opLog) Chtimes(name string, atime, mtime time.Time) error {
	l.add("chtimes", name)
	return l.FS.Chtimes(name, atime, mtime)
}

// opLogFile records its reads, fstats and close.
type opLogFile struct {
	diskio.File
	log *opLog
}

func (f *opLogFile) Read(p []byte) (int, error) {
	f.log.add("read", f.Name())
	return f.File.Read(p)
}

func (f *opLogFile) Stat() (os.FileInfo, error) {
	f.log.add("fstat", f.Name())
	return diskio.Stat(f.log.FS, f.File)
}

func (f *opLogFile) Close() error {
	f.log.add("close", f.Name())
	return f.File.Close()
}

// countOps counts the calls in ops whose op is op.
func countOps(ops []string, op string) int {
	n := 0
	for _, o := range ops {
		if strings.HasPrefix(o, op+" ") {
			n++
		}
	}
	return n
}

// TestCompactionWithoutBudgetStatsNothing: with no byte budget, Open
// reads no directory but tmp/, where it sweeps temp leftovers, and
// stats nothing — nothing can be evicted, so the entries' names, sizes
// and ages are never needed. Under a budget it lists objects/ and
// stats every entry.
func TestCompactionWithoutBudgetStatsNothing(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	const entries = 8
	for i := 0; i < entries; i++ {
		c.Put(key(fmt.Sprintf("cell-%d", i)), []byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	tmp := plantTmp(t, dir)

	fsys := &opLog{FS: diskio.OS{}}
	c2 := mustOpen(t, dir, Options{FS: fsys})
	ops := fsys.take()
	if got, want := ops, []string{
		"mkdir " + filepath.Join(dir, objectsDir),
		"mkdir " + filepath.Join(dir, corruptDir),
		"mkdir " + filepath.Join(dir, tmpDir),
		"readdir " + filepath.Join(dir, tmpDir),
		"remove " + tmp,
	}; strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("Open without a budget made\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp leftover survived reopen: %v", err)
	}
	if _, hit, _ := c2.Get(key("cell-3")); !hit {
		t.Fatal("entry lost by a budget-free Open")
	}

	budgeted := &opLog{FS: diskio.OS{}}
	c3 := mustOpen(t, dir, Options{FS: budgeted, MaxBytes: 1 << 20})
	ops = budgeted.take()
	if n := countOps(ops, "readdir"); n != 2 {
		t.Fatalf("Open under a budget read %d directories, want tmp/ and objects/: %q", n, ops)
	}
	if n := countOps(ops, "stat"); n != entries {
		t.Fatalf("Open under a budget made %d Stat calls, want %d", n, entries)
	}
	if st := c3.Stats(); st.Evicted != 0 {
		t.Fatalf("roomy budget evicted %d entries", st.Evicted)
	}
}

// TestCacheHitOneRead: a hit inside the recency grain opens its entry,
// fstats it, reads it with exactly one Read of the fstat's size and
// closes it — four calls, no path Stat and no touch — and serves the
// bytes Put stored.
func TestCacheHitOneRead(t *testing.T) {
	dir := t.TempDir()
	fsys := &opLog{FS: diskio.OS{}}
	c := mustOpen(t, dir, Options{FS: fsys})
	k := key("cell-one-read")
	payload := []byte(`{"iterations":8,"instances":5632,"violations":0}`)
	c.Put(k, payload)
	fsys.take()
	for i := 0; i < 3; i++ {
		got, hit, corrupt := c.Get(k)
		if !hit || corrupt || !bytes.Equal(got, payload) {
			t.Fatalf("hit %d: hit=%v corrupt=%v payload %q", i, hit, corrupt, got)
		}
		path := filepath.Join(dir, objectsDir, k)
		want := []string{"open " + path, "fstat " + path, "read " + path, "close " + path}
		if ops := fsys.take(); strings.Join(ops, "\n") != strings.Join(want, "\n") {
			t.Fatalf("hit %d made\n%s\nwant\n%s", i, strings.Join(ops, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestCacheOversizedEntryQuarantinedUnread: an entry larger than
// maxEntryBytes cannot be one Put wrote, so Get quarantines it on the
// size its fstat reports, without reading a byte.
func TestCacheOversizedEntryQuarantinedUnread(t *testing.T) {
	dir := t.TempDir()
	fsys := &opLog{FS: diskio.OS{}}
	c := mustOpen(t, dir, Options{FS: fsys})
	k := key("cell-huge-entry")
	// A sparse file: the size is there, the blocks are not.
	f, err := os.Create(filepath.Join(dir, objectsDir, k))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(maxEntryBytes + 1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	fsys.take()
	if _, hit, corrupt := c.Get(k); hit || !corrupt {
		t.Fatalf("oversized entry: hit=%v corrupt=%v", hit, corrupt)
	}
	if n := countOps(fsys.take(), "read"); n != 0 {
		t.Fatalf("oversized entry read %d times, want 0", n)
	}
	if _, err := os.Stat(filepath.Join(dir, corruptDir, k)); err != nil {
		t.Fatalf("oversized entry not quarantined: %v", err)
	}
}

// TestCacheGetRefusesNonHexKey: Get looks up only keys Put could have
// published. A key that is not lowercase hex — a path that climbs out
// of objects/ above all — is a miss before any filesystem call, so a
// file outside the cache is never opened, judged corrupt or moved into
// corrupt/.
func TestCacheGetRefusesNonHexKey(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "cache")
	notes := filepath.Join(root, "notes.txt")
	if err := os.WriteFile(notes, []byte("not a cache entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	fsys := &opLog{FS: diskio.OS{}}
	c := mustOpen(t, dir, Options{FS: fsys})
	fsys.take()
	for _, k := range []string{"../../notes.txt", "../notes.txt", "", "Key", strings.ToUpper(key("cell")), "ab/cd"} {
		if got, hit, corrupt := c.Get(k); hit || corrupt || got != nil {
			t.Fatalf("Get(%q): hit=%v corrupt=%v payload %q", k, hit, corrupt, got)
		}
	}
	if ops := fsys.take(); len(ops) != 0 {
		t.Fatalf("Get of non-hex keys touched the filesystem: %q", ops)
	}
	if data, err := os.ReadFile(notes); err != nil || string(data) != "not a cache entry" {
		t.Fatalf("file outside the cache disturbed: %q %v", data, err)
	}
	if st := c.Stats(); st.Misses != 6 || st.Corrupt != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// BenchmarkCacheGetHit measures one verified warm hit — open, fstat,
// read, layout and digest check — on two entry shapes. Its repeated
// hits fall inside the recency grain of the entry's Put, so none of
// them touches the entry's mtime. The shapes are a
// whole tuning record (about 790 bytes), as tuning cells cached before
// they cached only their measurement, and a tuning measurement (about
// 290 bytes), the entry a tuning cell caches today.
func BenchmarkCacheGetHit(b *testing.B) {
	for _, bc := range []struct {
		name    string
		payload string
	}{
		{"record", `{"family":"PTE","env_id":"pte-7","env":{"TestingWorkgroups":27,"MaxWorkgroups":44,` +
			`"WorkgroupSize":32,"ShufflePct":82,"BarrierPct":74,"MemStressPct":0,"MemStressIterations":762,` +
			`"MemStressStoreFirstPct":19,"MemStressStoreSecondPct":53,"PreStressPct":97,"PreStressIterations":38,` +
			`"PreStressStoreFirstPct":0,"PreStressStoreSecondPct":48,"ScratchMemorySize":2048,"StressLineSize":64,` +
			`"StressTargetLines":2,"StressStrategyBalancePct":50,"MemStride":4,"MemLocationOffset":1},` +
			`"device":"Intel","test":"MP-relacq","mutator":"reversing po","is_mutant":true,"iterations":8,` +
			`"instances":5632,"target_count":1,"violations":0,"sim_seconds":0.0123,"target_rate":81.3}`},
		{"measurement", `{"iterations":8,"instances":5632,"target_count":1,"violations":0,` +
			`"sim_seconds":0.0123,"target_rate":81.3}`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dir := b.TempDir()
			c, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			k := key("bench-cell")
			c.Put(k, []byte(bc.payload))
			entry, err := os.ReadFile(filepath.Join(dir, objectsDir, k))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(entry)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, hit, _ := c.Get(k); !hit {
					b.Fatal("miss")
				}
			}
		})
	}
}

// BenchmarkCacheOpen measures a budget-free Open over stores of
// growing size. It creates the layout and sweeps tmp/, and never lists
// objects/, so its cost should not grow with the store. 4,352 entries
// is the store of mcbench's tune-warm workload.
func BenchmarkCacheOpen(b *testing.B) {
	for _, n := range []int{1024, 4352, 16384} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			objects := filepath.Join(dir, objectsDir)
			if err := os.MkdirAll(objects, 0o755); err != nil {
				b.Fatal(err)
			}
			payload := []byte(`{"iterations":2,"instances":1408,"target_count":0,"violations":0,` +
				`"sim_seconds":0.0031,"target_rate":0}`)
			for i := 0; i < n; i++ {
				k := key(fmt.Sprintf("bench-open-%d", i))
				var entry bytes.Buffer
				if _, err := envelope(&entry, k, payload); err != nil {
					b.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(objects, k), entry.Bytes(), 0o644); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Open(dir, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
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
