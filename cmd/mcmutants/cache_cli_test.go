package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// captureStderr redirects stderr around fn; the cache summary is
// stderr-only observability, so these tests read it there.
func captureStderr(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	runErr := fn()
	w.Close()
	os.Stderr = old
	out, err := readAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return out, runErr
}

// TestCacheFlagValidationFailsFast: an unusable -cache-dir (or a
// nonsensical budget) is a configuration error rejected with exit 1
// before any campaign work begins — the same policy -out and the
// profile paths get — and never a silent fall-through to uncached
// execution.
func TestCacheFlagValidationFailsFast(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "report.json")
	inTheWay := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(inTheWay, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"campaign", "-cache-dir", inTheWay, "-iters", "1000000", "-out", out, "-quiet"},
		{"campaign", "-cache-dir", dir, "-cache-max-mb", "-1", "-iters", "1000000", "-out", out, "-quiet"},
		{"tune", "-cache-dir", inTheWay, "-site-iters", "1000000", "-out", out, "-quiet"},
		{"work", "-coordinator", "http://127.0.0.1:1", "-cache-dir", inTheWay, "-quiet"},
	}
	for _, args := range cases {
		start := time.Now()
		err := run(args)
		if err == nil {
			t.Errorf("%v: accepted", args)
			continue
		}
		if code := exitCode(err); code != 1 {
			t.Errorf("%v: exit %d (%v), want 1", args, code, err)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Errorf("%v: rejected only after %v — validation ran after campaign work started", args, el)
		}
		if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
			t.Errorf("%v: artifact written despite fatal flag error", args)
		}
	}
}

// TestCampaignCacheWarmRerunByteIdentical is the CLI acceptance check:
// the same campaign of either kind run cold, warm, and with caching off
// produces byte-identical report artifacts; the warm run reuses every
// cell and says so on stderr.
func TestCampaignCacheWarmRerunByteIdentical(t *testing.T) {
	for _, kind := range []string{"conformance", "evaluate"} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			cacheDir := filepath.Join(dir, "cache")
			base := []string{"campaign", "-kind", kind, "-devices", "AMD",
				"-envs", "pte", "-iters", "2", "-quiet"}
			report := func(name string, extra ...string) string {
				t.Helper()
				path := filepath.Join(dir, name)
				args := append(append([]string(nil), base...), "-out", path)
				args = append(args, extra...)
				stderr, err := captureStderr(t, func() error {
					_, runErr := capture(t, func() error { return run(args) })
					return runErr
				})
				if err != nil {
					t.Fatalf("%v: %v", args, err)
				}
				t.Logf("%s stderr: %s", name, strings.TrimSpace(stderr))
				if name == "warm.json" && !strings.Contains(stderr, "cache:") {
					t.Fatalf("warm run printed no cache summary:\n%s", stderr)
				}
				if name == "warm.json" && strings.Contains(stderr, "cache: 0 hit(s)") {
					t.Fatalf("warm run had zero cache hits:\n%s", stderr)
				}
				raw, rerr := os.ReadFile(path)
				if rerr != nil {
					t.Fatal(rerr)
				}
				return string(raw)
			}

			off := report("off.json")
			cold := report("cold.json", "-cache-dir", cacheDir)
			warm := report("warm.json", "-cache-dir", cacheDir)
			if cold != off {
				t.Fatal("cold cached artifact differs from the cache-off artifact")
			}
			if warm != off {
				t.Fatal("warm cached artifact differs from the cache-off artifact")
			}
			noTmpResidue(t, filepath.Join(cacheDir, "objects"))
			if ents, err := os.ReadDir(filepath.Join(cacheDir, "tmp")); err != nil || len(ents) != 0 {
				t.Fatalf("cache tmp/ not empty after publication: %v %v", ents, err)
			}
		})
	}
}

// TestTuneCacheWarmRerunByteIdentical: the tuning pipeline shares the
// cache seam; a warm re-run reuses the simulated environments and the
// dataset bytes never change.
func TestTuneCacheWarmRerunByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	base := []string{"tune", "-envs", "1", "-site-iters", "2", "-pte-iters", "1",
		"-devices", "AMD", "-quiet"}
	runOnce := func(name string, extra ...string) (string, string) {
		t.Helper()
		path := filepath.Join(dir, name)
		args := append(append([]string(nil), base...), "-out", path)
		args = append(args, extra...)
		stderr, err := captureStderr(t, func() error {
			_, runErr := capture(t, func() error { return run(args) })
			return runErr
		})
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		return string(raw), stderr
	}

	off, _ := runOnce("off.json")
	cold, _ := runOnce("cold.json", "-cache-dir", cacheDir)
	warm, stderr := runOnce("warm.json", "-cache-dir", cacheDir)
	if cold != off || warm != off {
		t.Fatal("cached tune dataset differs from the cache-off dataset")
	}
	if strings.Contains(stderr, "cache: 0 hit(s)") || !strings.Contains(stderr, "cache:") {
		t.Fatalf("warm tune run did not reuse cached cells:\n%s", stderr)
	}
}
