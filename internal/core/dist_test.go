package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// runDistributed runs campaign — a RunWorkSpec call with o.Dist on
// hub — while in-process workers drain the one campaign it registers,
// and returns when the call returns. The workers run under a context
// cancelled then: a worker told to wait while the last ranges are
// leased would otherwise sleep out a quarter of the lease TTL before
// it learned the campaign was done. With crash set, one more worker
// goes first and crashes through dist.FaultTransport while it holds a
// leased range, so the coordinator must re-issue that range once its
// lease expires; the others start only after the crash.
func runDistributed(t *testing.T, hub *dist.Hub, ws WorkSpec, workers, parallel int, crash bool, campaign func() error) error {
	t.Helper()
	unit, err := DistWork(ws, DistWorkOptions{Parallel: parallel})
	if err != nil {
		t.Fatalf("DistWork: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- campaign() }()
	wctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// work polls the hub until the campaign registers, then drains it.
	stop := make(chan struct{})
	work := func(id string, crashAt int) {
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, info := range hub.List() {
				if info.Done {
					continue
				}
				if info.Manifest != unit.Spec.Manifest() {
					t.Errorf("worker %s: campaign %s manifest %.12s, local %.12s", id, info.Name, info.Manifest, unit.Spec.Manifest())
					return
				}
				var tr dist.Transport = hub.LocalTransport(info.Name)
				if crashAt > 0 {
					tr = dist.NewFaultTransport(tr, dist.FaultPlan{CrashAt: crashAt})
				}
				err := dist.NewWorker(tr, unit.Spec, unit.Run, dist.WorkerOptions{
					ID:          id,
					AcquireWait: 5 * time.Millisecond,
					RPCBackoff:  time.Millisecond,
				}).Run(wctx)
				// Unregistration races look like RPC failures; the
				// campaign result is what the test asserts on.
				if err == nil || errors.Is(err, dist.ErrWorkerCrashed) {
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}
	if crash {
		// RPCs 1 and 2 are info and the first acquire, which leases a
		// range of the fresh campaign; the crash takes the range's
		// renewal or delivery.
		work("crasher", 3)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			work(fmt.Sprintf("w%d", id), 0)
		}(w)
	}
	err = <-done
	cancel()
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
	err = runDistributed(t, hub, ws, 2, 2, false, func() error {
		opts := CampaignOptions{Dist: &dist.Options{Hub: hub, LeaseTTL: 30 * time.Second, RangeCells: 3}}
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

// TestDistributedEvaluateArtifactParity: a two-device evaluation
// campaign with fault injection and a device circuit breaker —
// retries, quarantine verdicts, failure records — merges byte-
// identically to a local run, because workers run the submitting
// side's retry policy and the coordinator applies the same breaker
// post-pass a local run would. Each device's entry also equals the
// entry of a one-device spec: cells are keyed by device, so a device's
// score never depends on the rest of the fleet.
func TestDistributedEvaluateArtifactParity(t *testing.T) {
	fm := gpu.UniformFaults(9, 0.05)
	ws := WorkSpec{
		Kind:     "evaluate",
		Devices:  []string{"AMD", "Intel"},
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
	breaker := &sched.BreakerOptions{}
	lone := &CampaignArtifact{Kind: "evaluate"}
	for _, d := range ws.Devices {
		one := ws
		one.Devices = []string{d}
		res, err := st.RunWorkSpec(context.Background(), one, CampaignOptions{Workers: 3, Collect: true, Breaker: breaker})
		if err != nil {
			t.Fatalf("local %s: %v", d, err)
		}
		lone.Evaluate = append(lone.Evaluate, res.Artifact.Evaluate...)
	}
	want := encodeArtifact(t, lone)

	local, err := st.RunWorkSpec(context.Background(), ws, CampaignOptions{Workers: 2, Collect: true, Breaker: breaker})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if got := encodeArtifact(t, local.Artifact); !bytes.Equal(want, got) {
		t.Fatalf("fleet entries differ from lone-device runs:\nlone:\n%s\nfleet:\n%s", want, got)
	}

	hub := dist.NewHub()
	var remote *WorkResult
	err = runDistributed(t, hub, ws, 3, 2, false, func() error {
		opts := CampaignOptions{
			Collect: true, Breaker: breaker,
			Dist: &dist.Options{Hub: hub, LeaseTTL: 30 * time.Second, RangeCells: 4},
		}
		var cerr error
		remote, cerr = st.RunWorkSpec(context.Background(), ws, opts)
		return cerr
	})
	if err != nil {
		t.Fatalf("distributed: %v", err)
	}
	if got := encodeArtifact(t, remote.Artifact); !bytes.Equal(want, got) {
		t.Fatalf("artifacts differ:\nlocal:\n%s\ndistributed:\n%s", want, got)
	}
}

// TestDistributedTuneMatchesLocal: a tuning study sharded 1, 2 and 4
// ways, each time with one more worker crashing on a leased range,
// produces a dataset byte-identical to a local run's.
func TestDistributedTuneMatchesLocal(t *testing.T) {
	ws := WorkSpec{Kind: "tune", Devices: []string{"AMD", "Intel"}, Seed: 5, TuneEnvs: 1, SiteIters: 2, PTEIters: 1}
	st, err := NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	encode := func(res *WorkResult) []byte {
		var buf bytes.Buffer
		if err := res.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	local, err := st.RunWorkSpec(context.Background(), ws, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	want := encode(local)
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			hub := dist.NewHub()
			var remote *WorkResult
			err := runDistributed(t, hub, ws, shards, 1, true, func() error {
				var cerr error
				remote, cerr = st.RunWorkSpec(context.Background(), ws, CampaignOptions{
					Dist: &dist.Options{Hub: hub, LeaseTTL: 200 * time.Millisecond, RangeCells: 8},
				})
				return cerr
			})
			if err != nil {
				t.Fatalf("distributed: %v", err)
			}
			if got := encode(remote); !bytes.Equal(want, got) {
				t.Fatalf("dataset differs from the local run's (%d vs %d bytes)", len(got), len(want))
			}
		})
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
	err = runDistributed(t, hub, ws, 1, 2, false, func() error {
		_, cerr := st.RunWorkSpec(context.Background(), ws, CampaignOptions{
			CheckpointPath: ckpt,
			Dist:           &dist.Options{Hub: hub, LeaseTTL: 30 * time.Second},
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
		Dist: &dist.Options{Hub: hub2, LeaseTTL: 30 * time.Second},
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
		Retries: 2, CellTimeoutMS: 1000,
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
	if a.Spec.Manifest() != b.Spec.Manifest() {
		t.Fatal("unit manifest drift after round-trip")
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
				opts.Dist = &dist.Options{Hub: hub, LeaseTTL: 30 * time.Second, RangeCells: 3}
				err = runDistributed(t, hub, ws, tc.shards, 2, false, func() error {
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

// TestFinalProgressUnderBreakerLocalMatchesDistributed: on a faulted
// fleet that loses devices, the circuit breaker quarantines cells. A
// local pool may execute some of them speculatively before their
// verdict is known; a distributed campaign executes all of them on its
// workers. Either way the Final snapshot counts each cell once and
// agrees on every settled counter. Instances, like the host-time
// fields, measures work done, speculative work included, so it is left
// out.
func TestFinalProgressUnderBreakerLocalMatchesDistributed(t *testing.T) {
	fm := gpu.UniformFaults(7, 0.05)
	fm.LossAfter = 3
	ws := WorkSpec{
		Kind:    "evaluate",
		Devices: []string{"AMD", "Intel"},
		Envs:    []string{"pte", "site-baseline"},
		Iters:   2,
		Seed:    7,
		Faults:  &fm,
	}
	st, err := NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	breaker := &sched.BreakerOptions{}
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
				Workers: 4, Collect: true, Breaker: breaker,
				OnProgress: func(p sched.Progress) {
					if p.Final {
						finals = append(finals, p)
					}
				},
			}
			if tc.shards == 0 {
				_, err = st.RunWorkSpec(context.Background(), ws, opts)
			} else {
				hub := dist.NewHub()
				opts.Dist = &dist.Options{Hub: hub, LeaseTTL: 30 * time.Second, RangeCells: 3}
				err = runDistributed(t, hub, ws, tc.shards, 2, false, func() error {
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
			got.ElapsedSeconds, got.CellsPerSec, got.InstancesPerSec, got.DeviceBusy, got.Instances = 0, 0, 0, nil, 0
			if got.Done != got.Total || got.Quarantined == 0 {
				t.Fatalf("final snapshot does not resolve every cell with some quarantined: %+v", got)
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
