package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/gpu"
	"repro/internal/sched"
)

// encodeArtifact renders an artifact canonically for byte comparison.
func encodeArtifact(t *testing.T, a *CampaignArtifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// runDistributed runs the campaign o describes (o.Dist must be set)
// while draining every hub campaign with the given number of worker
// processes (in-process, via the hub's local transport), and returns
// when the campaign call returns.
func runDistributed(t *testing.T, hub *dist.Hub, ws WorkSpec, workers, parallel int, campaign func() error) error {
	t.Helper()
	units, err := DistWork(ws, DistWorkOptions{Parallel: parallel})
	if err != nil {
		t.Fatalf("DistWork: %v", err)
	}
	byManifest := map[string]WorkUnit{}
	for _, u := range units {
		byManifest[u.Spec.Manifest()] = u
	}

	done := make(chan error, 1)
	go func() { done <- campaign() }()

	// Workers poll the hub until the campaign call finishes: campaigns
	// register as the call plans them, and evaluate registers devices
	// sequentially, so a one-shot drain would miss later registrations.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			drained := map[string]bool{}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, info := range hub.List() {
					if drained[info.Name] || info.Done {
						continue
					}
					unit, ok := byManifest[info.Manifest]
					if !ok {
						t.Errorf("worker %d: no unit for campaign %s (manifest %.12s)", id, info.Name, info.Manifest)
						return
					}
					tr := hub.LocalTransport(info.Name)
					worker := dist.NewWorker(tr, unit.Spec, unit.Run, dist.WorkerOptions{
						ID:          "w" + info.Name,
						AcquireWait: 5 * time.Millisecond,
						RPCBackoff:  time.Millisecond,
					})
					if err := worker.Run(context.Background()); err != nil {
						// Unregistration races look like RPC failures; the
						// campaign result is what the test asserts on.
						continue
					}
					drained[info.Name] = true
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}
	err = <-done
	close(stop)
	wg.Wait()
	return err
}

// TestDistributedConformanceArtifactParity: a fleet conformance
// campaign coordinated across worker processes publishes an artifact
// byte-identical to the single-process run's.
func TestDistributedConformanceArtifactParity(t *testing.T) {
	ws := WorkSpec{
		Kind:    "conformance",
		Devices: []string{"AMD", "Intel"},
		Envs:    []string{"pte"},
		Iters:   2,
		Seed:    11,
	}
	st, err := NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	envs, err := ws.envParams()
	if err != nil {
		t.Fatal(err)
	}
	platforms := ws.platforms()

	local, err := st.CheckFleetConformanceCtx(context.Background(), platforms, envs[0], ws.Iters, ws.Seed, CampaignOptions{Workers: 3})
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	want := encodeArtifact(t, &CampaignArtifact{Kind: "conformance", Conformance: local})

	hub := dist.NewHub()
	var remote *WorkResult
	err = runDistributed(t, hub, ws, 2, 2, func() error {
		opts := CampaignOptions{Dist: &DistOptions{Hub: hub, LeaseTTL: 30 * time.Second, RangeCells: 3}}
		var cerr error
		remote, cerr = st.RunWorkSpec(context.Background(), ws, opts)
		return cerr
	})
	if err != nil {
		t.Fatalf("distributed: %v", err)
	}
	got := encodeArtifact(t, remote.Artifact)
	if !bytes.Equal(want, got) {
		t.Fatalf("artifacts differ:\nlocal:\n%s\ndistributed:\n%s", want, got)
	}
}

// zeroWall clears the one nondeterministic field of an evaluation
// score — per-mutant host wall time, which differs between ANY two
// runs, local or not — so the rest of the artifact can be compared
// byte for byte.
func zeroWall(score *EnvScore) {
	for _, r := range score.PerMutant {
		r.WallSeconds = 0
	}
}

// TestDistributedEvaluateArtifactParity: an evaluation campaign with
// fault injection and a device circuit breaker — retries, quarantine
// verdicts, failure records — still merges byte-identically (modulo
// host wall time), because workers run the submitting side's retry
// policy and the coordinator applies the same breaker post-pass a
// local run would.
func TestDistributedEvaluateArtifactParity(t *testing.T) {
	fm := gpu.UniformFaults(9, 0.05)
	ws := WorkSpec{
		Kind:     "evaluate",
		Devices:  []string{"AMD"},
		Envs:     []string{"pte", "site-baseline"},
		Iters:    2,
		Seed:     9,
		FenceBug: true,
		Faults:   &fm,
		Retries:  1,
	}
	st, err := NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	envs, err := ws.envParams()
	if err != nil {
		t.Fatal(err)
	}
	p := ws.platforms()[0]
	breaker := &sched.BreakerOptions{}

	local, err := st.EvaluateEnvironmentsCtx(context.Background(), p, envs, ws.Iters, ws.Seed, CampaignOptions{
		Workers: 3, Retries: ws.Retries, Collect: true, Breaker: breaker,
	})
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	zeroWall(local)
	want := encodeArtifact(t, &CampaignArtifact{Kind: "evaluate", Evaluate: []EvaluateEntry{{Device: p.Device, Score: local}}})

	hub := dist.NewHub()
	var remote *WorkResult
	err = runDistributed(t, hub, ws, 3, 2, func() error {
		opts := CampaignOptions{
			Collect: true, Breaker: breaker,
			Dist: &DistOptions{Hub: hub, LeaseTTL: 30 * time.Second, RangeCells: 4},
		}
		var cerr error
		remote, cerr = st.RunWorkSpec(context.Background(), ws, opts)
		return cerr
	})
	if err != nil {
		t.Fatalf("distributed: %v", err)
	}
	zeroWall(remote.Artifact.Evaluate[0].Score)
	got := encodeArtifact(t, remote.Artifact)
	if !bytes.Equal(want, got) {
		t.Fatalf("artifacts differ:\nlocal:\n%s\ndistributed:\n%s", want, got)
	}
}

// TestDistributedResumeSeedsCheckpoint: a distributed campaign with a
// checkpoint persists delivered segments; a resumed distributed run
// replays them (no re-execution) and completes to the same artifact.
func TestDistributedResumeSeedsCheckpoint(t *testing.T) {
	ws := WorkSpec{
		Kind:    "conformance",
		Devices: []string{"AMD"},
		Envs:    []string{"pte"},
		Iters:   2,
		Seed:    3,
	}
	st, err := NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	envs, _ := ws.envParams()
	platforms := ws.platforms()
	local, err := st.CheckFleetConformanceCtx(context.Background(), platforms, envs[0], ws.Iters, ws.Seed, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	want := encodeArtifact(t, &CampaignArtifact{Kind: "conformance", Conformance: local})

	ckpt := t.TempDir() + "/dist.ckpt"

	// First distributed run completes fully, writing the checkpoint.
	hub := dist.NewHub()
	err = runDistributed(t, hub, ws, 1, 2, func() error {
		_, cerr := st.RunWorkSpec(context.Background(), ws, CampaignOptions{
			CheckpointPath: ckpt,
			Dist:           &DistOptions{Hub: hub, LeaseTTL: 30 * time.Second},
		})
		return cerr
	})
	if err != nil {
		t.Fatalf("first distributed run: %v", err)
	}

	// The resumed run must find every cell in the checkpoint: the
	// coordinator starts complete and no worker executes anything —
	// prove it by registering no workers at all.
	hub2 := dist.NewHub()
	resumed, err := st.RunWorkSpec(context.Background(), ws, CampaignOptions{
		CheckpointPath: ckpt, Resume: true,
		Dist: &DistOptions{Hub: hub2, LeaseTTL: 30 * time.Second},
	})
	if err != nil {
		t.Fatalf("resumed distributed run: %v", err)
	}
	got := encodeArtifact(t, resumed.Artifact)
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed artifact differs:\nlocal:\n%s\nresumed:\n%s", want, got)
	}
}

// TestWorkSpecDescriptorRoundTrip: the wire descriptor reproduces the
// work spec, including the fault model, so worker-rebuilt campaigns
// share the submitting side's manifest.
func TestWorkSpecDescriptorRoundTrip(t *testing.T) {
	fm := gpu.UniformFaults(4, 0.1)
	fm.LossAfter = 3
	ws := WorkSpec{
		Kind: "evaluate", Devices: []string{"AMD", "M1"}, Envs: []string{"pte", "site"},
		Iters: 5, Seed: 42, FenceBug: true, Faults: &fm,
		Retries: 2, BackoffMS: 50, CellTimeoutMS: 1000,
	}
	raw, err := ws.Descriptor()
	if err != nil {
		t.Fatal(err)
	}
	var back WorkSpec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	a, err := DistWork(ws, DistWorkOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DistWork(back, DistWorkOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 2 {
		t.Fatalf("unit counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Spec.Manifest() != b[i].Spec.Manifest() {
			t.Fatalf("unit %d manifest drift after round-trip", i)
		}
		if a[i].Campaign != b[i].Campaign {
			t.Fatalf("unit %d campaign name drift: %q vs %q", i, a[i].Campaign, b[i].Campaign)
		}
	}
}

// TestFinalProgressLocalMatchesDistributed: the Final progress snapshot
// of a local campaign and of the same campaign coordinated across 1 and
// 2 worker shards agree on every settled counter. Host-time fields —
// elapsed time, both rates and per-device busy time — are excluded.
func TestFinalProgressLocalMatchesDistributed(t *testing.T) {
	fm := gpu.UniformFaults(5, 0.05)
	ws := WorkSpec{
		Kind:    "conformance",
		Devices: []string{"AMD", "Intel"},
		Envs:    []string{"pte"},
		Iters:   2,
		Seed:    13,
		Faults:  &fm,
		Retries: 1,
	}
	st, err := NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	envs, err := ws.envParams()
	if err != nil {
		t.Fatal(err)
	}
	var localFinal sched.Progress
	for _, tc := range []struct {
		name   string
		shards int // 0 runs locally
	}{
		{"local", 0},
		{"dist-1", 1},
		{"dist-2", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var finals []sched.Progress
			opts := CampaignOptions{
				Workers: 3, Retries: ws.Retries, Collect: true,
				OnProgress: func(p sched.Progress) {
					if p.Final {
						finals = append(finals, p)
					}
				},
			}
			if tc.shards == 0 {
				_, err = st.CheckFleetConformanceCtx(context.Background(), ws.platforms(), envs[0], ws.Iters, ws.Seed, opts)
			} else {
				hub := dist.NewHub()
				opts.Dist = &DistOptions{Hub: hub, LeaseTTL: 30 * time.Second, RangeCells: 3}
				err = runDistributed(t, hub, ws, tc.shards, 2, func() error {
					_, err := st.RunWorkSpec(context.Background(), ws, opts)
					return err
				})
			}
			if err != nil {
				t.Fatalf("campaign: %v", err)
			}
			if len(finals) != 1 {
				t.Fatalf("%d final snapshots, want 1", len(finals))
			}
			got := finals[0]
			got.ElapsedSeconds, got.CellsPerSec, got.InstancesPerSec, got.DeviceBusy = 0, 0, 0, nil
			if got.Done != got.Total || got.Executed != got.Total || got.Instances == 0 {
				t.Fatalf("final snapshot does not cover the campaign: %+v", got)
			}
			if tc.shards == 0 {
				localFinal = got
				return
			}
			if !reflect.DeepEqual(got, localFinal) {
				t.Fatalf("settled counters differ:\nlocal:       %+v\ndistributed: %+v", localFinal, got)
			}
		})
	}
}
