package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/diskio"
	"repro/internal/mutation"
	"repro/internal/resultcache"
	"repro/internal/tuning"
)

// runReduced runs a shrunken workload once untraced and once traced and
// returns both outcomes. With zero seconds a campaign workload runs
// minRounds rounds and serve runs exactly its minimum job count.
func runReduced(t *testing.T, name string, run func(b *bench, o *outcome) error) (off, on *outcome) {
	t.Helper()
	for _, traced := range []bool{false, true} {
		b := &bench{workload: name, seed: 7, dir: t.TempDir(), log: io.Discard}
		if traced {
			b.tr = newTracer()
		}
		o := &outcome{workload: name}
		if err := run(b, o); err != nil {
			t.Fatalf("%s traced=%v: %v", name, traced, err)
		}
		if len(o.problems) > 0 || o.failed > 0 {
			t.Fatalf("%s traced=%v: %d failed, problems %v", name, traced, o.failed, o.problems)
		}
		if traced {
			on = o
		} else {
			off = o
		}
	}
	return off, on
}

func TestTracingIsTransparent(t *testing.T) {
	ctx := context.Background()
	workloads := map[string]func(b *bench, o *outcome) error{
		"conformance": func(b *bench, o *outcome) error {
			return b.conformance(ctx, o, conformanceWorkload{devices: []string{"AMD", "Intel"}, iters: 2, workers: 2, replayEvery: 8})
		},
		"tune-cold": func(b *bench, o *outcome) error {
			w := tuneCold
			w.cfg = tuneConfig(1, 2, 1, "Intel", "M1")
			return b.tune(ctx, o, w)
		},
		"tune-warm": func(b *bench, o *outcome) error {
			w := tuneWarm
			w.cfg = tuneConfig(1, 1, 1, "NVIDIA")
			return b.tune(ctx, o, w)
		},
		"serve": func(b *bench, o *outcome) error {
			return b.serve(ctx, o, serveWorkload{device: "Intel", iters: 1, runners: 2, jobWorkers: 1, clients: 2, minJobs: 4, boots: 2})
		},
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			off, on := runReduced(t, name, workloads[name])
			if len(off.digests) == 0 || len(off.digests) != len(on.digests) {
				t.Fatalf("artifact counts: untraced %d, traced %d", len(off.digests), len(on.digests))
			}
			for i := range off.digests {
				if off.digests[i] != on.digests[i] {
					t.Errorf("artifact %d: untraced sha256 %s, traced %s", i, off.digests[i], on.digests[i])
				}
			}
		})
	}
}

// errFS fails every operation with its own sentinel error; OpenFile of
// "open" succeeds with an errFile.
type errFS struct{}

var (
	errOpen    = errors.New("open")
	errRename  = errors.New("rename")
	errRemove  = errors.New("remove")
	errSyncDir = errors.New("syncdir")
	errMkdir   = errors.New("mkdir")
	errReadDir = errors.New("readdir")
	errStat    = errors.New("stat")
	errChtimes = errors.New("chtimes")
	errWrite   = errors.New("write")
	errRead    = errors.New("read")
	errSeek    = errors.New("seek")
	errClose   = errors.New("close")
	errSync    = errors.New("sync")
	errTrunc   = errors.New("truncate")
)

func (errFS) OpenFile(name string, _ int, _ os.FileMode) (diskio.File, error) {
	if name == "open" {
		return errFile{}, nil
	}
	return nil, errOpen
}
func (errFS) Rename(string, string) error                { return errRename }
func (errFS) Remove(string) error                        { return errRemove }
func (errFS) SyncDir(string) error                       { return errSyncDir }
func (errFS) MkdirAll(string, os.FileMode) error         { return errMkdir }
func (errFS) ReadDir(string) ([]os.DirEntry, error)      { return nil, errReadDir }
func (errFS) Stat(string) (os.FileInfo, error)           { return nil, errStat }
func (errFS) Chtimes(string, time.Time, time.Time) error { return errChtimes }

// errFile writes and reads 3 bytes, then fails.
type errFile struct{}

func (errFile) Write([]byte) (int, error)      { return 3, errWrite }
func (errFile) Read([]byte) (int, error)       { return 3, errRead }
func (errFile) Seek(int64, int) (int64, error) { return 0, errSeek }
func (errFile) Close() error                   { return errClose }
func (errFile) Name() string                   { return "open" }
func (errFile) Sync() error                    { return errSync }
func (errFile) Truncate(int64) error           { return errTrunc }

func TestTracedFSPassesErrorsThrough(t *testing.T) {
	tr := newTracer()
	fs := newTracedFS(errFS{}, tr, map[string]string{"open": "ckpt"})
	if _, err := fs.OpenFile("missing", os.O_RDONLY, 0); err != errOpen {
		t.Errorf("OpenFile: %v", err)
	}
	_, readDirErr := fs.ReadDir("d")
	_, statErr := fs.Stat("s")
	for _, c := range []struct{ got, want error }{
		{fs.Rename("a", "b"), errRename},
		{fs.Remove("a"), errRemove},
		{fs.SyncDir("open"), errSyncDir},
		{fs.MkdirAll("a", 0o755), errMkdir},
		{readDirErr, errReadDir},
		{statErr, errStat},
		{fs.Chtimes("a", time.Time{}, time.Time{}), errChtimes},
	} {
		if c.got != c.want {
			t.Errorf("got %v, want %v", c.got, c.want)
		}
	}
	f, err := fs.OpenFile("open", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write([]byte("a\nb\n")); n != 3 || err != errWrite {
		t.Errorf("Write: %d, %v", n, err)
	}
	if n, err := f.Read(make([]byte, 8)); n != 3 || err != errRead {
		t.Errorf("Read: %d, %v", n, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != errSeek {
		t.Errorf("Seek: %v", err)
	}
	if err := f.Sync(); err != errSync {
		t.Errorf("Sync: %v", err)
	}
	if err := f.Truncate(0); err != errTrunc {
		t.Errorf("Truncate: %v", err)
	}
	if err := f.Close(); err != errClose {
		t.Errorf("Close: %v", err)
	}
	spans, counts := tr.summary()
	if spans["ckpt.fsync"].n != 2 || counts["ckpt.bytes_written"] != 3 || counts["ckpt.records"] != 1 || counts["ckpt.bytes_read"] != 3 {
		t.Errorf("accounting: spans %v counts %v", spans, counts)
	}
}

// fakeCache answers every Get with fixed values and records Puts.
type fakeCache struct {
	payload      []byte
	hit, corrupt bool
	err          error
	puts         map[string][]byte
}

func (c *fakeCache) Get(string) ([]byte, bool, bool) { return c.payload, c.hit, c.corrupt }
func (c *fakeCache) Put(k string, p []byte)          { c.puts[k] = p }
func (c *fakeCache) Degraded() error                 { return c.err }

func TestTracedCachePassesValuesThrough(t *testing.T) {
	inner := &fakeCache{payload: []byte(`{"x":1}`), corrupt: true, err: syscall.EIO, puts: map[string][]byte{}}
	c := &tracedCache{inner: inner, t: newTracer()}
	p, hit, corrupt := c.Get("k")
	if !bytes.Equal(p, inner.payload) || hit || !corrupt {
		t.Errorf("Get: %q %v %v", p, hit, corrupt)
	}
	c.Put("k", []byte("v"))
	if string(inner.puts["k"]) != "v" {
		t.Errorf("Put did not reach the cache: %v", inner.puts)
	}
	if c.Degraded() != syscall.EIO {
		t.Errorf("Degraded: %v", c.Degraded())
	}
}

// TestTracedCacheDegradesOnENOSPC runs a tuning campaign whose cache
// sits on a full disk behind both tracing wrappers: the cache must
// degrade to pass-through and the dataset must not change.
func TestTracedCacheDegradesOnENOSPC(t *testing.T) {
	suite, err := mutation.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := tuneConfig(1, 1, 1, "Intel")
	cfg.Seed = 3
	plain, err := tuning.RunCampaign(cfg, suite.Mutants, tuning.RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "cache")
	faults := diskio.NewFaultFS(diskio.OS{}, 1)
	tr := newTracer()
	cache, err := resultcache.Open(dir, resultcache.Options{FS: newTracedFS(faults, tr, map[string]string{dir: "cache"})})
	if err != nil {
		t.Fatal(err)
	}
	faults.FailFrom(faults.Ops()+1, syscall.ENOSPC)
	traced := &tracedCache{inner: cache, t: tr}
	ds, err := tuning.RunCampaign(cfg, suite.Mutants, tuning.RunOptions{Workers: 2, Cache: traced})
	if err != nil {
		t.Fatal(err)
	}
	if err := traced.Degraded(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("cache not degraded by ENOSPC: %v", err)
	}
	var want, got bytes.Buffer
	if err := plain.Save(&want); err != nil {
		t.Fatal(err)
	}
	if err := ds.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("dataset changed when the traced cache degraded")
	}
}
