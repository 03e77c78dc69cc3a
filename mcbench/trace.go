package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diskio"
	"repro/internal/sched"
)

// span is one timed interval at a layer boundary. Spans of one campaign
// round (or one serve job) share Parent, the round's or job's own span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counters in memory; write dumps them when the
// run ends. A nil *tracer is the untraced benchmark: every method is a
// no-op and no wrapper is installed.
type tracer struct {
	t0   time.Time
	next atomic.Int64
	// cur is the parent of spans opened by wrappers, which cannot see
	// which round or job their caller belongs to.
	cur atomic.Int64

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]int64{}}
}

// open is an unfinished span; end records it.
type open struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// begin opens a span under parent (0 for a root span).
func (t *tracer) begin(name string, parent int64) open {
	if t == nil {
		return open{}
	}
	return open{t: t, id: t.next.Add(1), parent: parent, name: name, start: time.Now()}
}

// child opens a span under the current round or job.
func (t *tracer) child(name string) open {
	if t == nil {
		return open{}
	}
	return t.begin(name, t.cur.Load())
}

// enter opens a root span and makes it the parent of later child spans.
func (t *tracer) enter(name string) open {
	o := t.begin(name, 0)
	if t != nil {
		t.cur.Store(o.id)
	}
	return o
}

// end records the span and returns its duration.
func (o open) end() time.Duration {
	if o.t == nil {
		return 0
	}
	now := time.Now()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, span{
		ID: o.id, Parent: o.parent, Name: o.name,
		Start: o.start.Sub(o.t.t0).Nanoseconds(), End: now.Sub(o.t.t0).Nanoseconds(),
	})
	o.t.mu.Unlock()
	return now.Sub(o.start)
}

// add bumps a named counter.
func (t *tracer) add(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// record stores an interval the caller timed itself (a serve job's phases).
func (t *tracer) record(name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: t.next.Add(1), Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	t.mu.Unlock()
}

// agg sums the spans of one name.
type agg struct {
	n     int64
	total time.Duration
}

// meanMS is the mean span duration in milliseconds, 0 without spans.
func (a agg) meanMS() float64 {
	if a.n == 0 {
		return 0
	}
	return a.total.Seconds() * 1e3 / float64(a.n)
}

// summary folds the spans by name and copies the counters.
func (t *tracer) summary() (map[string]agg, map[string]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byName := map[string]agg{}
	for _, s := range t.spans {
		a := byName[s.Name]
		a.n++
		a.total += time.Duration(s.End - s.Start)
		byName[s.Name] = a
	}
	counts := make(map[string]int64, len(t.counts))
	for k, v := range t.counts {
		counts[k] = v
	}
	return byName, counts
}

// write dumps every span as one JSON line, then the counters.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	err = enc.Encode(map[string]any{"counters": t.counts})
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- storage ---

// tracedFS wraps a diskio.FS and attributes every file to a layer by
// path prefix: bytes moved and fsyncs (file Sync and SyncDir) are
// counted and timed per layer. Errors pass through unchanged.
type tracedFS struct {
	inner diskio.FS
	t     *tracer
	// layers maps a directory prefix to a layer name; the longest
	// matching prefix wins. Unmatched paths go to "other".
	layers map[string]string
}

func newTracedFS(inner diskio.FS, t *tracer, layers map[string]string) *tracedFS {
	if inner == nil {
		inner = diskio.OS{}
	}
	return &tracedFS{inner: inner, t: t, layers: layers}
}

// layer names the layer owning path.
func (fs *tracedFS) layer(path string) string {
	best, name := -1, "other"
	for prefix, l := range fs.layers {
		if (path == prefix || strings.HasPrefix(path, prefix+string(filepath.Separator))) && len(prefix) > best {
			best, name = len(prefix), l
		}
	}
	return name
}

func (fs *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (diskio.File, error) {
	f, err := fs.inner.OpenFile(name, flag, perm)
	if err != nil {
		return f, err
	}
	return &tracedFile{File: f, fs: fs, layer: fs.layer(name)}, nil
}

func (fs *tracedFS) Rename(oldpath, newpath string) error { return fs.inner.Rename(oldpath, newpath) }
func (fs *tracedFS) Remove(name string) error             { return fs.inner.Remove(name) }
func (fs *tracedFS) MkdirAll(path string, perm os.FileMode) error {
	return fs.inner.MkdirAll(path, perm)
}
func (fs *tracedFS) ReadDir(name string) ([]os.DirEntry, error) { return fs.inner.ReadDir(name) }
func (fs *tracedFS) Stat(name string) (os.FileInfo, error)      { return fs.inner.Stat(name) }
func (fs *tracedFS) Chtimes(name string, atime, mtime time.Time) error {
	return fs.inner.Chtimes(name, atime, mtime)
}

func (fs *tracedFS) SyncDir(dir string) error {
	l := fs.layer(dir)
	o := fs.t.child(l + ".fsync")
	err := fs.inner.SyncDir(dir)
	o.end()
	return err
}

// tracedFile counts the bytes and records (newline-terminated lines) a
// layer writes, the bytes it reads, and times its fsyncs.
type tracedFile struct {
	diskio.File
	fs    *tracedFS
	layer string
}

func (f *tracedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.t.add(f.layer+".bytes_written", int64(n))
	f.fs.t.add(f.layer+".records", int64(bytes.Count(p[:n], []byte{'\n'})))
	return n, err
}

func (f *tracedFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.fs.t.add(f.layer+".bytes_read", int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	o := f.fs.t.child(f.layer + ".fsync")
	err := f.File.Sync()
	o.end()
	return err
}

// --- result cache ---

// tracedCache wraps a sched.ResultCache, timing Get and Put and
// counting lookups, hits and corrupt entries. Values and the degraded
// state pass through unchanged.
type tracedCache struct {
	inner sched.ResultCache
	t     *tracer
}

func (c *tracedCache) Get(key string) ([]byte, bool, bool) {
	o := c.t.child("resultcache.get")
	payload, hit, corrupt := c.inner.Get(key)
	o.end()
	c.t.add("resultcache.lookups", 1)
	if hit {
		c.t.add("resultcache.hits", 1)
	}
	if corrupt {
		c.t.add("resultcache.corrupt", 1)
	}
	return payload, hit, corrupt
}

func (c *tracedCache) Put(key string, payload []byte) {
	o := c.t.child("resultcache.put")
	c.inner.Put(key, payload)
	o.end()
}

func (c *tracedCache) Degraded() error { return c.inner.Degraded() }

// --- HTTP ---

// tracedTransport times each HTTP round trip to the server, naming the
// span after the API call (submit, report, events, other). For the
// event stream the span ends when the response headers arrive.
type tracedTransport struct {
	inner http.RoundTripper
	t     *tracer
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	call := "other"
	switch p := req.URL.Path; {
	case req.Method == http.MethodPost && p == "/api/v1/jobs":
		call = "submit"
	case strings.HasSuffix(p, "/report"):
		call = "report"
	case strings.HasSuffix(p, "/events"):
		call = "events"
	}
	o := tt.t.child("http." + call)
	resp, err := tt.inner.RoundTrip(req)
	o.end()
	tt.t.add("http.requests", 1)
	return resp, err
}
