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
	"repro/internal/tuning"
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
			u, err := core.DistWork(ws, core.DistWorkOptions{Parallel: 2})
			if err != nil {
				t.Errorf("worker %s: plan: %v", id, err)
				return
			}
			if u.Spec.Manifest() != info.Manifest {
				t.Errorf("worker %s: campaign %s manifest mismatch", id, info.Name)
				return
			}
			idle = false
			w := dist.NewWorker(&dist.HTTPTransport{BaseURL: baseURL, Campaign: info.Name, Client: client},
				u.Spec, u.Run, dist.WorkerOptions{ID: id})
			// Unregistration races at campaign end are expected; the
			// next poll settles it.
			w.Run(ctx)
		}
		if idle {
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// localTuneArtifact renders the dataset the tuning library produces
// for the spec.
func localTuneArtifact(t *testing.T, js JobSpec) []byte {
	t.Helper()
	study, err := core.NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	cfg := tuning.SmallConfig()
	cfg.Environments, cfg.SITEIterations, cfg.PTEIterations = js.TuneEnvs, js.SiteIters, js.PTEIters
	cfg.Seed, cfg.Devices = js.Seed, js.Devices
	ds, err := tuning.RunCampaign(cfg, study.Suite.Mutants, tuning.RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// localCorrelateArtifact renders the Table 4 report the library
// produces for the spec.
func localCorrelateArtifact(t *testing.T, js JobSpec) []byte {
	t.Helper()
	study, err := core.NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	ws := core.WorkSpec{Kind: "correlate", TuneEnvs: js.TuneEnvs, Iters: js.Iters, Seed: js.Seed}
	res, err := study.RunWorkSpec(context.Background(), ws, core.CampaignOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A distributed job of every kind — cells leased to remote workers
// over HTTP — produces a report byte-identical to the same spec run on
// the server's own runner and to the library's artifact.
func TestDistributedJobByteIdenticalToLocal(t *testing.T) {
	for _, tc := range []struct {
		spec    JobSpec
		library func(*testing.T, JobSpec) []byte
	}{
		{JobSpec{Kind: "conformance", Devices: []string{"AMD", "Intel"}, Envs: []string{"pte"}, Iters: 2, Seed: 11}, localConformanceArtifact},
		{JobSpec{Kind: "evaluate", Devices: []string{"AMD", "Intel"}, Envs: []string{"pte"}, Iters: 2, Seed: 11}, localEvaluateArtifact},
		{JobSpec{Kind: "tune", Devices: []string{"AMD", "Intel"}, Seed: 11, TuneEnvs: 1, SiteIters: 2, PTEIters: 1}, localTuneArtifact},
		{JobSpec{Kind: "correlate", Seed: 11, TuneEnvs: 3, Iters: 2}, localCorrelateArtifact},
	} {
		t.Run(tc.spec.Kind, func(t *testing.T) {
			_, c := startServer(t, Config{Runners: 2, JobWorkers: 4, EnableDist: true, DistLeaseTTL: 30 * time.Second})
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()

			local, err := c.Submit(ctx, tc.spec)
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

			distSpec := tc.spec
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
			if !bytes.Equal(got, tc.library(t, tc.spec)) {
				t.Fatal("distributed report differs from the library artifact")
			}
		})
	}
}

// Distributed jobs are rejected up front when the server has no
// /dist/v1/ hub, and accepted for every kind when it has one.
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
	if _, err := cd.Submit(ctx, JobSpec{Kind: "tune", Distributed: true, TuneEnvs: 2, SiteIters: 2, PTEIters: 2}); err != nil {
		t.Fatalf("distributed tune submit with -dist enabled: %v", err)
	}
}
