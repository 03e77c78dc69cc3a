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
// promise JobSpec makes for every kind — also when the spec names no
// devices and both sides run the Table 3 fleet.
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
	for _, tc := range []struct {
		name string
		spec serve.JobSpec
		args []string
	}{
		{"devices", serve.JobSpec{Kind: "tune", Devices: []string{"AMD", "Intel"}, TuneEnvs: 2, SiteIters: 4, PTEIters: 2},
			[]string{"-devices", "AMD,Intel", "-envs", "2", "-site-iters", "4", "-pte-iters", "2"}},
		{"fleet", serve.JobSpec{Kind: "tune", TuneEnvs: 1, SiteIters: 2, PTEIters: 1},
			[]string{"-envs", "1", "-site-iters", "2", "-pte-iters", "1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sub, err := c.Submit(ctx, tc.spec)
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
			args := append([]string{"tune"}, tc.args...)
			args = append(args, "-parallel", "2", "-quiet", "-out", out)
			if _, err := capture(t, func() error { return run(args) }); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("served tune report differs from the CLI dataset: %d vs %d bytes", len(got), len(want))
			}
		})
	}
}
