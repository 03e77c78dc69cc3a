// Package resultcache is the persistent, content-addressed store for
// campaign cell results. A cell's result is a pure function of its
// inputs — test, mutation, environment, device profile, derived seed,
// and the workload parameters the exec closure bakes in — so once a
// cell has been executed anywhere, any later campaign asking the same
// question can reuse the answer. Keys are the hex SHA-256 cell digests
// the scheduler computes (package sched); the store never interprets
// them.
//
// A cache root holds three directories: objects/ (one file per
// published entry, named by its key), corrupt/ (quarantined entries)
// and tmp/ (entries being written).
//
// The cache is built as a robustness subsystem first and an
// optimization second. Its contract:
//
//   - Verify on read. Every entry embeds a format version, its key and
//     a SHA-256 digest of its payload in one exact byte layout, written
//     and checked against the same constants and re-checked on every
//     Get. A torn write, bit rot, version skew, a misfiled or
//     hand-edited entry — even one re-laid-out as equivalent JSON — is
//     detected, quarantined into corrupt/, and reported as a miss —
//     never as an error and never as data.
//   - Crash-safe publication. Put writes an entry to tmp/<key>, fsyncs
//     it, renames it to objects/<key> and fsyncs objects/
//     (diskio.WriteAtomicVia), so a reader or a crash observes a
//     complete entry or none, and a crashed writer leaves its temp file
//     in tmp/. Concurrent writers of the same key race safely: the
//     first published entry wins, later writers see it and stand down,
//     and a cross-process tear that slips through the race is caught by
//     verify-on-read.
//   - Degrade to recompute. ENOSPC/EIO on any cache I/O flips a sticky
//     pass-through degradation: every later Get is a miss and every Put
//     a no-op, the campaign recomputes what it would have reused, and
//     the degradation is reported — but never fails the run. The cache
//     is an optimization, not a dependency.
//   - Bounded size. A deterministic oldest-first (last-use mtime, path
//     tiebreak) compaction pass runs at Open when a byte budget is
//     configured; Get refreshes an entry's mtime, to within a minute,
//     so reuse counts as recency. Every Open sweeps tmp/, and only a
//     budgeted Open lists objects/, so a budget-free Open costs the
//     same whatever the store holds.
//
// A warm hit inside the recency grain makes four system calls on
// Linux: the open of its entry, an fstat, one read of exactly the size
// the fstat reported, and the close.
package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/diskio"
)

// FormatVersion is the entry format generation. An entry recorded
// under any other version fails verification and is quarantined, so a
// format change can never serve stale-layout payloads.
const FormatVersion = 1

// maxEntryBytes bounds how large an entry Get will read — symmetric
// with the checkpoint's record limit, and a backstop against a
// corrupted length landing the reader in gigabytes of garbage. A
// larger file is quarantined unread.
const maxEntryBytes = 1 << 26

// objectsDir, corruptDir and tmpDir are the three directories under
// the cache root: verified-publishable entries, quarantined evidence,
// and entries being written.
const (
	objectsDir = "objects"
	corruptDir = "corrupt"
	tmpDir     = "tmp"
)

// An entry is one JSON object in exactly this layout:
//
//	{"format":N,"key":K,"payload":P,"payload_sha256":S}
//
// P is the compact payload and S the lowercase hex SHA-256 of P's
// exact bytes — what turns the envelope into evidence: a payload that
// does not hash to S was not the payload this entry was published
// with. envelope writes the layout and verify checks it, byte for
// byte, from the same four pieces. Every FormatVersion 1 entry on disk
// has this layout, so changing it needs a FormatVersion bump.
var entryFormat = `{"format":` + strconv.Itoa(FormatVersion) + `,"key":"`

const (
	entryPayload = `","payload":`
	entrySum     = `,"payload_sha256":"`
	entryEnd     = `"}`
	// entryTail is the length of everything after P.
	entryTail = len(entrySum) + 2*sha256.Size + len(entryEnd)
)

// readBufs recycles Get's read buffers. A hit copies its payload out,
// so no buffer outlives the call, and each settles at the size of the
// entries it reads: a warm run reads without allocating one.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledRead bounds the buffers readBufs keeps, so one oversized
// (typically corrupt) entry does not pin its memory for the process.
const maxPooledRead = 64 << 10

// recencyGrain is how old an entry's mtime must be before a hit
// touches it, so an mtime trails its entry's last use by less than the
// grain. Compaction, the only reader of these mtimes, runs at a
// budgeted Open, so it chooses between the entries of earlier runs:
// it still orders two runs' entries by their last use whenever the
// runs lie at least a grain apart, and runs closer together than that
// have both just used their entries. A minute is far longer than the
// gap between back-to-back warm runs (milliseconds to seconds), which
// then make no metadata write, and far shorter than the gap between
// sessions that a budget must tell apart. A rule keyed to the cache's
// Open would not help re-runs: each opens its own cache, after the
// previous run's touches.
const recencyGrain = time.Minute

// Options configures a cache.
type Options struct {
	// FS is the filesystem seam; nil means the real filesystem.
	FS diskio.FS
	// MaxBytes, when positive, is the byte budget the compaction pass
	// at Open enforces over objects/ (oldest entries evicted first).
	MaxBytes int64
	// Clock stamps LRU recency mtimes; nil means the system clock.
	// Deterministic tests inject clock.Fake.
	Clock clock.Clock
}

// Stats is a counter snapshot. Each field is exact when it is read,
// but the fields are read one after another: a snapshot taken while
// other goroutines use the cache may count an operation that finished
// during the snapshot in some fields and not others, and never counts
// one that has not finished. Once every call has returned, a snapshot
// is exact.
type Stats struct {
	Hits    int64 // verified entries served
	Misses  int64 // lookups with no entry (or a degraded cache)
	Corrupt int64 // entries that failed verification and were quarantined
	Puts    int64 // entries published
	Evicted int64 // entries removed by the compaction pass at Open
	// Degraded reports the sticky pass-through state; Err is the
	// storage error that caused it.
	Degraded bool
	Err      string
}

// Cache is a content-addressed result store rooted at one directory.
// All methods are safe for concurrent use and none of them ever
// returns an error: every failure mode resolves to "recompute". Gets
// share no lock: the counters and the degradation are atomic.
type Cache struct {
	fsys diskio.FS
	clk  clock.Clock
	// objects, corrupt and tmp are the root's three directories,
	// joined once at Open.
	objects, corrupt, tmp string

	// locks serializes in-process same-key publication (64 stripes by
	// the key's first hex byte). Cross-process races are resolved by
	// first-wins rename plus verify-on-read.
	locks [64]sync.Mutex

	// degraded holds the first storage error, once there is one.
	degraded atomic.Pointer[error]

	hits, misses, corrupted, puts, evicted atomic.Int64
}

// Open roots a cache at dir, creating its layout, sweeping tmp/ and,
// under a byte budget, running the compaction pass. A storage error
// (ENOSPC/EIO) during setup yields a usable cache already in its
// degraded pass-through state — a full disk must not fail the campaign
// — while any other error (permissions, a file where the directory
// should be) is returned, so misconfiguration fails fast instead of
// silently running uncached.
func Open(dir string, opts Options) (*Cache, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = diskio.OS{}
	}
	clk := opts.Clock
	if clk == nil {
		clk = clock.System{}
	}
	c := &Cache{
		fsys:    fsys,
		clk:     clk,
		objects: filepath.Join(dir, objectsDir),
		corrupt: filepath.Join(dir, corruptDir),
		tmp:     filepath.Join(dir, tmpDir),
	}
	var err error
	for _, sub := range []string{c.objects, c.corrupt, c.tmp} {
		if err = fsys.MkdirAll(sub, 0o755); err != nil {
			break
		}
	}
	if err == nil {
		err = c.sweep()
	}
	if err == nil && opts.MaxBytes > 0 {
		err = c.compact(opts.MaxBytes)
	}
	if err != nil {
		if c.fault(err) {
			return c, nil
		}
		return nil, fmt.Errorf("resultcache: open %s: %w", dir, err)
	}
	return c, nil
}

// join is filepath.Join for a clean directory and a bare file name,
// without the re-cleaning.
func join(dir, name string) string {
	return dir + string(filepath.Separator) + name
}

// Get returns the verified payload cached under key. hit reports a
// verified entry; corrupt reports that an entry existed but failed
// verification and was quarantined (the caller should count it and
// recompute). Get never returns an error: a key that is not lowercase
// hex, as Put publishes, and an unreadable entry are misses, and a
// storage error flips the sticky degradation.
func (c *Cache) Get(key string) (payload []byte, hit bool, corrupt bool) {
	if !hexKey(key) || c.Degraded() != nil {
		return c.miss(nil)
	}
	path := join(c.objects, key)
	f, err := diskio.Open(c.fsys, path)
	if err != nil {
		return c.miss(err)
	}
	info, err := diskio.Stat(c.fsys, f)
	if err != nil {
		f.Close()
		return c.miss(err)
	}
	if info.Size() > maxEntryBytes {
		f.Close()
		return c.reject(key)
	}
	bp := readBufs.Get().(*[]byte)
	defer func() {
		if cap(*bp) <= maxPooledRead {
			readBufs.Put(bp)
		}
	}()
	n := int(info.Size())
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	data := (*bp)[:n]
	_, err = io.ReadFull(f, data)
	f.Close()
	if err != nil {
		if diskio.IsStorageErr(err) {
			return c.miss(err)
		}
		// A short or failed read of an existing entry is treated as
		// corruption: quarantine it so the next run is not haunted too.
		return c.reject(key)
	}
	payload, ok := verify(key, data)
	if !ok {
		return c.reject(key)
	}
	// Refresh recency so the compaction pass sees reuse, not just
	// publication age, unless the entry was stamped within the last
	// recencyGrain. Best-effort: a failed touch costs eviction
	// fidelity, never correctness.
	if t := c.clk.Now(); t.Sub(info.ModTime()) >= recencyGrain {
		c.fault(c.fsys.Chtimes(path, t, t))
	}
	c.hits.Add(1)
	return bytes.Clone(payload), true, false
}

// miss counts a lookup that served nothing, degrading the cache when
// err is a storage error, and returns Get's miss.
func (c *Cache) miss(err error) ([]byte, bool, bool) {
	c.fault(err)
	c.misses.Add(1)
	return nil, false, false
}

// reject quarantines key's entry, counts it and returns Get's corrupt
// result.
func (c *Cache) reject(key string) ([]byte, bool, bool) {
	c.quarantine(key)
	c.corrupted.Add(1)
	return nil, false, true
}

// envelope appends the entry for key around payload to dst, compacting
// payload on the way so the digest is over the exact bytes stored, and
// returns the compacted payload's length. It fails, leaving dst
// unusable, when payload is not JSON.
func envelope(dst *bytes.Buffer, key string, payload []byte) (int, error) {
	dst.WriteString(entryFormat)
	dst.WriteString(key)
	dst.WriteString(entryPayload)
	start := dst.Len()
	if err := json.Compact(dst, payload); err != nil {
		return 0, err
	}
	compact := dst.Bytes()[start:]
	sum := digest(compact)
	dst.WriteString(entrySum)
	dst.Write(sum[:])
	dst.WriteString(entryEnd)
	return len(compact), nil
}

// verify checks data against the layout envelope writes for key and
// returns the payload bytes. Every integrity claim the publisher
// embedded is checked: the format version, the key and the payload
// digest (Get has already bounded the size). Anything else — including
// an equivalent JSON document laid out differently — fails. The
// payload itself is not parsed here: its digest proves it is the bytes
// Put compacted, and the caller decodes it in full.
func verify(key string, data []byte) ([]byte, bool) {
	head := len(entryFormat) + len(key) + len(entryPayload)
	if len(data) <= head+entryTail ||
		string(data[:len(entryFormat)]) != entryFormat ||
		string(data[len(entryFormat):len(entryFormat)+len(key)]) != key ||
		string(data[head-len(entryPayload):head]) != entryPayload {
		return nil, false
	}
	payload, tail := data[head:len(data)-entryTail], data[len(data)-entryTail:]
	if string(tail[:len(entrySum)]) != entrySum || string(tail[len(tail)-len(entryEnd):]) != entryEnd {
		return nil, false
	}
	sum := digest(payload)
	if string(tail[len(entrySum):len(entrySum)+len(sum)]) != string(sum[:]) {
		return nil, false
	}
	return payload, true
}

// digest is S for payload: its lowercase hex SHA-256.
func digest(payload []byte) [2 * sha256.Size]byte {
	sum := sha256.Sum256(payload)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return out
}

// quarantine moves key's failed entry into corrupt/ so it stops
// poisoning lookups but stays available as evidence. Best-effort on a
// cache that may itself be dying: a failed rename falls back to
// removal, and a storage error degrades; an entry that survives both
// is simply re-quarantined by the next reader.
func (c *Cache) quarantine(key string) {
	path := join(c.objects, key)
	err := c.fsys.MkdirAll(c.corrupt, 0o755)
	if err == nil {
		if err = c.fsys.Rename(path, join(c.corrupt, key)); err == nil {
			return
		}
	}
	if !c.fault(err) {
		c.fault(c.fsys.Remove(path))
	}
}

// Put publishes payload (a JSON document) under key. It never returns
// an error: a storage failure flips the sticky degradation, any other
// failure drops this one entry, and in both cases the campaign's
// correctness is untouched — the entry is simply recomputed next time.
// The first writer of a key wins; later writers (same content by
// construction, since the key is a content address of the inputs)
// stand down.
func (c *Cache) Put(key string, payload []byte) {
	if c.Degraded() != nil || !hexKey(key) {
		return
	}
	// Compact to the canonical encoding so the digest is over the exact
	// bytes stored, independent of upstream whitespace; this also
	// refuses non-JSON payloads outright.
	var buf bytes.Buffer
	n, err := envelope(&buf, key, payload)
	if err != nil || n > maxEntryBytes/2 {
		return
	}
	lock := &c.locks[int(key[0])%len(c.locks)]
	lock.Lock()
	defer lock.Unlock()
	path := join(c.objects, key)
	if _, err := c.fsys.Stat(path); err == nil {
		return // first writer already won
	}
	err = diskio.WriteAtomicVia(c.fsys, join(c.tmp, key), path, func(w io.Writer) error {
		_, err := w.Write(buf.Bytes())
		return err
	})
	if err != nil {
		c.fault(err)
		return
	}
	t := c.clk.Now()
	c.fault(c.fsys.Chtimes(path, t, t))
	c.puts.Add(1)
}

// hexKey reports whether key is non-empty lowercase hex, the shape of
// sched's cell digests. Only such keys are published or looked up:
// they need no JSON escaping inside the envelope and are safe as file
// names, so no key reaches outside objects/.
func hexKey(key string) bool {
	if key == "" {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Degraded returns the sticky storage error that switched the cache to
// pass-through, or nil while it is healthy.
func (c *Cache) Degraded() error {
	if err := c.degraded.Load(); err != nil {
		return *err
	}
	return nil
}

// Stats returns a counter snapshot.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Corrupt: c.corrupted.Load(),
		Puts:    c.puts.Load(),
		Evicted: c.evicted.Load(),
	}
	if err := c.Degraded(); err != nil {
		s.Degraded = true
		s.Err = err.Error()
	}
	return s
}

// fault flips the sticky degradation when err is a storage error, and
// reports whether it was one. The first storage error is the one
// reported.
func (c *Cache) fault(err error) bool {
	if err == nil || !diskio.IsStorageErr(err) {
		return false
	}
	first := err // a copy, so that only a storage error escapes to the heap
	c.degraded.CompareAndSwap(nil, &first)
	return true
}

// sweep removes the temp files of writers that died mid-publication.
// They are all in tmp/, so Open never lists objects/ for them. A live
// writer's temp file in another process may go too; its rename then
// fails and that one entry is recomputed next time.
func (c *Cache) sweep() error {
	ents, err := c.fsys.ReadDir(c.tmp)
	if err != nil {
		return err
	}
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		if err := c.fsys.Remove(join(c.tmp, de.Name())); err != nil && !errorsIsNotExist(err) {
			return err
		}
	}
	return nil
}

// compact enforces a byte budget: it evicts entries oldest-first
// (mtime, then path, so the pass is deterministic for a given
// directory state) until objects/ fits. It runs only at a budgeted
// Open: campaigns in flight never lose entries under them.
func (c *Cache) compact(maxBytes int64) error {
	ents, err := c.fsys.ReadDir(c.objects)
	if err != nil {
		return err
	}
	type obj struct {
		name  string
		size  int64
		mtime time.Time
	}
	var objs []obj
	var total int64
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		info, err := c.fsys.Stat(join(c.objects, de.Name()))
		if err != nil {
			if errorsIsNotExist(err) {
				continue
			}
			return err
		}
		objs = append(objs, obj{name: de.Name(), size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
	}
	if total <= maxBytes {
		return nil
	}
	sort.Slice(objs, func(i, j int) bool {
		if !objs[i].mtime.Equal(objs[j].mtime) {
			return objs[i].mtime.Before(objs[j].mtime)
		}
		return objs[i].name < objs[j].name
	})
	for _, o := range objs {
		if total <= maxBytes {
			break
		}
		if err := c.fsys.Remove(join(c.objects, o.name)); err != nil {
			if errorsIsNotExist(err) {
				continue
			}
			return err
		}
		total -= o.size
		c.evicted.Add(1)
	}
	return nil
}

// errorsIsNotExist reports a does-not-exist error wherever it sits in
// the chain.
func errorsIsNotExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist)
}
