package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestServeTuneReportMatchesCLI: a tune job's report is byte-identical
// to the dataset `mcmutants tune -out` writes for the same spec — the
// promise JobSpec makes for every kind.
func TestServeTuneReportMatchesCLI(t *testing.T) {
	srv, err := serve.New(serve.Config{StateDir: t.TempDir(), Runners: 1, JobWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("server Run: %v", err)
		}
	}()
	c := &serve.Client{BaseURL: "http://" + ln.Addr().String()}
	sub, err := c.Submit(ctx, serve.JobSpec{Kind: "tune", Devices: []string{"AMD", "Intel"},
		TuneEnvs: 2, SiteIters: 4, PTEIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.Wait(ctx, sub.Job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != serve.StateDone {
		t.Fatalf("tune job state = %s (%s), want done", j.State, j.Error)
	}
	got, err := c.Report(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(t.TempDir(), "tuning.json")
	if _, err := capture(t, func() error {
		return run([]string{"tune", "-devices", "AMD,Intel", "-envs", "2", "-site-iters", "4",
			"-pte-iters", "2", "-parallel", "2", "-quiet", "-out", out})
	}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served tune report differs from the CLI dataset: %d vs %d bytes", len(got), len(want))
	}
}
