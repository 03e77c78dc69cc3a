package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
)

// freeAddr reserves an ephemeral port and releases it for the campaign
// coordinator to bind; the tiny reuse race is acceptable in tests.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// libraryArtifact renders a conformance campaign through
// CheckFleetConformanceCtx directly, independent of the CLI's path.
func libraryArtifact(t *testing.T, devices []string, iters int, seed uint64) []byte {
	t.Helper()
	study, err := core.NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	env, err := core.EnvByName("pte", 16, 32)
	if err != nil {
		t.Fatal(err)
	}
	var platforms []core.Platform
	for _, d := range devices {
		platforms = append(platforms, core.Platform{Device: d})
	}
	reports, err := study.CheckFleetConformanceCtx(context.Background(), platforms, env, iters, seed, core.CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (&core.CampaignArtifact{Kind: "conformance", Conformance: reports}).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fastClock is the system clock with every sleep cut a hundredfold.
type fastClock struct{ clock.System }

func (c fastClock) Sleep(ctx context.Context, d time.Duration) error {
	return c.System.Sleep(ctx, d/100)
}

// TestCampaignDistributedByteIdentical runs the same conformance
// campaign twice — locally, and coordinated over HTTP with two worker
// processes — and requires the published artifacts to be byte-identical
// to each other and to the library's.
func TestCampaignDistributedByteIdentical(t *testing.T) {
	// A worker told to wait while the last ranges are leased sleeps a
	// quarter of the lease TTL. By the time it asks again the campaign
	// process may have returned and closed its hub, and the worker then
	// spends its whole RPC retry budget before it exits. Both waits
	// still happen, a hundred times shorter.
	defer func(c clock.Clock) { workerClock = c }(workerClock)
	workerClock = fastClock{}
	dir := t.TempDir()
	localOut := filepath.Join(dir, "local.json")
	distOut := filepath.Join(dir, "dist.json")
	base := []string{
		"campaign", "-kind", "conformance", "-devices", "AMD,Intel",
		"-envs", "pte", "-iters", "2", "-seed", "7", "-quiet",
	}
	if err := run(append(base, "-out", localOut, "-parallel", "3")); err != nil {
		t.Fatalf("local campaign: %v", err)
	}

	addr := freeAddr(t)
	coordDone := make(chan error, 1)
	go func() {
		coordDone <- run(append(base, "-out", distOut,
			"-workers-addr", addr, "-lease-ttl", "30s", "-range-cells", "3"))
	}()
	var wg sync.WaitGroup
	workErrs := make([]error, 2)
	for i := range workErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workErrs[i] = dispatch(context.Background(), []string{
				"work", "-coordinator", "http://" + addr,
				"-id", fmt.Sprintf("w%d", i), "-parallel", "2",
				"-poll", "25ms", "-once", "-quiet",
			})
		}(i)
	}
	select {
	case err := <-coordDone:
		if err != nil {
			t.Fatalf("distributed campaign: %v", err)
		}
	case <-time.After(3 * time.Minute):
		t.Fatal("distributed campaign timed out")
	}
	wg.Wait()
	for i, err := range workErrs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}

	want, err := os.ReadFile(localOut)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(distOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("artifacts differ:\nlocal:\n%s\ndistributed:\n%s", want, got)
	}
	if !bytes.Equal(got, libraryArtifact(t, []string{"AMD", "Intel"}, 2, 7)) {
		t.Fatal("distributed artifact differs from the library artifact")
	}
}

// TestWorkCachedWorkerByteIdentical: a worker mounting a result cache
// warmed by an earlier local run of the same campaign serves its leased
// cells from disk — nonzero hits on its summary line — and the
// coordinator's merged artifact is still byte-identical to the local
// one: deliveries tag hits, artifacts never encode them.
func TestWorkCachedWorkerByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	localOut := filepath.Join(dir, "local.json")
	distOut := filepath.Join(dir, "dist.json")
	base := []string{
		"campaign", "-kind", "conformance", "-devices", "AMD,Intel",
		"-envs", "pte", "-iters", "2", "-seed", "7", "-quiet",
	}
	if _, err := captureStderr(t, func() error {
		return run(append(base, "-out", localOut, "-cache-dir", cacheDir))
	}); err != nil {
		t.Fatalf("local campaign: %v", err)
	}

	// Redirect stderr around the whole orchestration: the coordinator
	// goroutine reads os.Stderr, so the swap must happen-before it
	// starts and the restore must happen-after it finishes. The
	// coordinator runs -quiet without a cache, so the captured stream
	// carries only the worker's cache summary line.
	addr := freeAddr(t)
	oldStderr := os.Stderr
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = pw
	coordDone := make(chan error, 1)
	go func() {
		coordDone <- run(append(base, "-out", distOut,
			"-workers-addr", addr, "-lease-ttl", "30s", "-range-cells", "3"))
	}()
	workErr := dispatch(context.Background(), []string{
		"work", "-coordinator", "http://" + addr, "-id", "wcache",
		"-parallel", "2", "-poll", "25ms", "-once", "-quiet",
		"-cache-dir", cacheDir})
	var coordErr error
	select {
	case coordErr = <-coordDone:
	case <-time.After(3 * time.Minute):
		os.Stderr = oldStderr
		t.Fatal("distributed campaign timed out")
	}
	pw.Close()
	os.Stderr = oldStderr
	workerStderr, err := readAll(pr)
	if err != nil {
		t.Fatal(err)
	}
	if coordErr != nil {
		t.Fatalf("distributed campaign: %v", coordErr)
	}
	if workErr != nil {
		t.Fatalf("worker: %v", workErr)
	}
	if !strings.Contains(workerStderr, "cache:") || strings.Contains(workerStderr, "cache: 0 hit(s)") {
		t.Fatalf("worker did not serve from the warmed cache:\n%s", workerStderr)
	}

	want, err := os.ReadFile(localOut)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(distOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("cached-worker distributed artifact differs from the local artifact")
	}
}

// TestWorkProfilesWritten: a worker carrying -cpuprofile/-memprofile
// publishes both profiles when it exits — here via the -once drain
// path, the common way a distributed worker terminates.
func TestWorkProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "dist.json")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")

	addr := freeAddr(t)
	coordDone := make(chan error, 1)
	go func() {
		coordDone <- run([]string{
			"campaign", "-kind", "conformance", "-devices", "AMD",
			"-envs", "pte", "-iters", "1", "-seed", "3", "-quiet",
			"-out", out, "-workers-addr", addr, "-lease-ttl", "30s"})
	}()
	workErr := dispatch(context.Background(), []string{
		"work", "-coordinator", "http://" + addr, "-id", "wprof",
		"-poll", "25ms", "-once", "-quiet",
		"-cpuprofile", cpu, "-memprofile", mem})
	select {
	case err := <-coordDone:
		if err != nil {
			t.Fatalf("distributed campaign: %v", err)
		}
	case <-time.After(3 * time.Minute):
		t.Fatal("distributed campaign timed out")
	}
	if workErr != nil {
		t.Fatalf("worker: %v", workErr)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile not written: %v", err)
		} else if fi.Size() == 0 {
			t.Errorf("%s: empty profile", p)
		}
	}
	if _, err := os.Stat(cpu + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("cpu profile temp file left behind")
	}
}

// TestWorkFlagErrors rejects unusable worker and coordinator flags up
// front, before any polling or campaign work.
func TestWorkFlagErrors(t *testing.T) {
	cases := [][]string{
		{"work"}, // missing -coordinator
		{"work", "-coordinator", "http://x", "-parallel", "0"},
		{"work", "-coordinator", "http://x", "-poll", "0s"},
		{"work", "-coordinator", "http://x", "-cpuprofile", filepath.Join("no", "such", "dir", "cpu.pprof")},
		{"campaign", "-kind", "conformance", "-workers-addr", "127.0.0.1:0", "-lease-ttl", "0s"},
		{"campaign", "-kind", "conformance", "-workers-addr", "127.0.0.1:0", "-range-cells", "0"},
		{"campaign", "-kind", "conformance", "-workers-addr", "127.0.0.1:0", "-stall-timeout", "-1s"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
