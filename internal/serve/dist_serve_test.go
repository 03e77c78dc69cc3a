package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
)

// pollWorker drives `mcmutants work` semantics in-process against the
// server's /dist/v1/ API: poll the campaign list, rebuild the work
// unit from the advertised descriptor, and execute leased ranges until
// ctx ends.
func pollWorker(ctx context.Context, t *testing.T, baseURL, id string) {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	for ctx.Err() == nil {
		infos, err := dist.ListCampaigns(ctx, baseURL, client)
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		idle := true
		for _, info := range infos {
			if info.Done {
				continue
			}
			var ws core.WorkSpec
			if err := json.Unmarshal(info.Descriptor, &ws); err != nil {
				t.Errorf("worker %s: descriptor: %v", id, err)
				return
			}
			units, err := core.DistWork(ws, core.DistWorkOptions{Parallel: 2})
			if err != nil {
				t.Errorf("worker %s: plan: %v", id, err)
				return
			}
			for _, u := range units {
				if u.Spec.Manifest() != info.Manifest {
					continue
				}
				idle = false
				w := dist.NewWorker(&dist.HTTPTransport{BaseURL: baseURL, Campaign: info.Name, Client: client},
					u.Spec, u.Run, dist.WorkerOptions{ID: id})
				// Unregistration races at campaign end are expected;
				// the next poll settles it.
				w.Run(ctx)
			}
		}
		if idle {
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// A distributed job — cells leased to remote workers over HTTP —
// produces a report byte-identical to the same spec run on the
// server's own runner and to the library's CheckFleetConformanceCtx.
func TestDistributedJobByteIdenticalToLocal(t *testing.T) {
	_, c := startServer(t, Config{Runners: 2, JobWorkers: 4, EnableDist: true, DistLeaseTTL: 30 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	spec := JobSpec{Kind: "conformance", Devices: []string{"AMD", "Intel"}, Envs: []string{"pte"}, Iters: 2, Seed: 11}

	local, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	lj, err := c.Wait(ctx, local.Job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if lj.State != StateDone {
		t.Fatalf("local job state = %s (%s)", lj.State, lj.Error)
	}

	distSpec := spec
	distSpec.Distributed = true
	remote, err := c.Submit(ctx, distSpec)
	if err != nil {
		t.Fatal(err)
	}
	if remote.Job.ID == local.Job.ID {
		t.Fatal("distributed spec mapped to the local job ID")
	}
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	for i := 0; i < 2; i++ {
		go pollWorker(wctx, t, c.BaseURL, "w"+string(rune('0'+i)))
	}
	rj, err := c.Wait(ctx, remote.Job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	wcancel()
	if rj.State != StateDone {
		t.Fatalf("distributed job state = %s (%s)", rj.State, rj.Error)
	}

	want, err := c.Report(ctx, lj.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Report(ctx, rj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed report differs from local: %d vs %d bytes", len(got), len(want))
	}
	if !bytes.Equal(got, localConformanceArtifact(t, spec)) {
		t.Fatal("distributed report differs from the library artifact")
	}
}

// Distributed jobs are rejected up front when the server has no
// /dist/v1/ hub, and tune can never run distributed.
func TestDistributedJobValidation(t *testing.T) {
	_, c, _ := queuedServer(t, Config{})
	ctx := context.Background()
	spec := smallConformance()
	spec.Distributed = true
	_, err := c.Submit(ctx, spec)
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("distributed submit without -dist: %v, want 400", err)
	}

	_, cd, _ := queuedServer(t, Config{EnableDist: true})
	if _, err := cd.Submit(ctx, spec); err != nil {
		t.Fatalf("distributed submit with -dist enabled: %v", err)
	}
	_, err = cd.Submit(ctx, JobSpec{Kind: "tune", Distributed: true, TuneEnvs: 2, SiteIters: 2, PTEIters: 2})
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("distributed tune submit: %v, want 400", err)
	}
}
