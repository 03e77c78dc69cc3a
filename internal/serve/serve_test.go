package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/wgsl"
)

// startServer boots a full server (runner pool + HTTP listener) on an
// ephemeral port and tears it down through the graceful-drain path.
func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	if cfg.ProgressEvery == 0 {
		cfg.ProgressEvery = 2 * time.Millisecond
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("server Run: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("server did not drain within 30s")
		}
	})
	return s, &Client{BaseURL: "http://" + ln.Addr().String()}
}

// queuedServer builds a server whose runner pool never starts, so
// submitted jobs stay queued — deterministic ground for admission and
// queued-cancellation tests.
func queuedServer(t *testing.T, cfg Config) (*Server, *Client, *httptest.Server) {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, &Client{BaseURL: hs.URL}, hs
}

// smallConformance is the standard quick job: one device, one env.
func smallConformance() JobSpec {
	return JobSpec{Kind: "conformance", Devices: []string{"AMD"}, Envs: []string{"pte"}, Iters: 2, Seed: 7}
}

// specPlatforms expands a spec's devices the way the CLI's -devices
// and -fence-bug flags do, written out here so the oracles below stay
// independent of the server's own expansion.
func specPlatforms(js JobSpec) []core.Platform {
	var platforms []core.Platform
	for _, d := range js.Devices {
		p := core.Platform{Device: d}
		if js.FenceBug {
			p.Driver = wgsl.DriverFenceDropping
		}
		platforms = append(platforms, p)
	}
	return platforms
}

// localConformanceArtifact renders the artifact the library produces
// for the spec through CheckFleetConformanceCtx directly — the
// byte-identity oracle.
func localConformanceArtifact(t *testing.T, js JobSpec) []byte {
	t.Helper()
	study, err := core.NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	env, err := core.EnvByName(js.Envs[0], 16, 32)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := study.CheckFleetConformanceCtx(context.Background(), specPlatforms(js), env,
		js.Iters, js.Seed, core.CampaignOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	art := &core.CampaignArtifact{Kind: "conformance", Conformance: reports}
	var buf bytes.Buffer
	if err := art.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestJobLifecycleAndByteIdentity(t *testing.T) {
	_, c := startServer(t, Config{Runners: 2, JobWorkers: 4})
	ctx := context.Background()
	sub, err := c.Submit(ctx, smallConformance())
	if err != nil {
		t.Fatal(err)
	}
	if sub.Existing {
		t.Fatal("fresh submission reported existing")
	}
	if sub.Job.State != StateQueued && sub.Job.State != StateRunning {
		t.Fatalf("fresh job state = %s", sub.Job.State)
	}
	if sub.Job.Cells == 0 || sub.Job.Manifest == "" {
		t.Fatalf("job missing plan: %+v", sub.Job)
	}
	j, err := c.Wait(ctx, sub.Job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateDone {
		t.Fatalf("job state = %s (error %q), want done", j.State, j.Error)
	}
	if j.Summary == nil || j.Summary.Done != j.Cells || j.Summary.Executed == 0 {
		t.Fatalf("bad summary: %+v", j.Summary)
	}
	got, err := c.Report(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := localConformanceArtifact(t, j.Spec)
	if !bytes.Equal(got, want) {
		t.Fatalf("server report differs from local artifact:\nserver: %d bytes\nlocal:  %d bytes", len(got), len(want))
	}

	// Idempotent resubmission of the completed job returns it as-is —
	// including a spec spelled via defaults instead of explicitly.
	again, err := c.Submit(ctx, JobSpec{Kind: "conformance", Devices: []string{" AMD "}, Envs: []string{"pte"}, Iters: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Existing || again.Job.ID != j.ID || again.Job.State != StateDone {
		t.Fatalf("resubmission not idempotent: existing=%v id=%s state=%s", again.Existing, again.Job.ID, again.Job.State)
	}
}

// localEvaluateArtifact renders the evaluate artifact for the spec by
// stitching one-device RunWorkSpec runs into one CampaignArtifact: a
// device's entry never depends on the rest of the fleet.
func localEvaluateArtifact(t *testing.T, js JobSpec) []byte {
	t.Helper()
	study, err := core.NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	art := &core.CampaignArtifact{Kind: "evaluate"}
	for _, d := range js.Devices {
		ws := core.WorkSpec{Kind: "evaluate", Devices: []string{d}, Envs: js.Envs, Iters: js.Iters, Seed: js.Seed, FenceBug: js.FenceBug}
		res, err := study.RunWorkSpec(context.Background(), ws, core.CampaignOptions{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		art.Evaluate = append(art.Evaluate, res.Artifact.Evaluate...)
	}
	var buf bytes.Buffer
	if err := art.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEvaluateJobMatchesLocal: a multi-device evaluate job reports
// exactly what per-device library evaluation reports.
func TestEvaluateJobMatchesLocal(t *testing.T) {
	_, c := startServer(t, Config{Runners: 1, JobWorkers: 4})
	ctx := context.Background()
	js := JobSpec{Kind: "evaluate", Devices: []string{"AMD", "Intel"}, Envs: []string{"pte", "site"}, Iters: 2, Seed: 5, FenceBug: true}
	sub, err := c.Submit(ctx, js)
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.Wait(ctx, sub.Job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateDone {
		t.Fatalf("evaluate job state = %s (%s), want done", j.State, j.Error)
	}
	got, err := c.Report(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := localEvaluateArtifact(t, j.Spec); !bytes.Equal(got, want) {
		t.Fatalf("evaluate report differs from the local artifact:\nserver: %d bytes\nlocal:  %d bytes", len(got), len(want))
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	_, c := startServer(t, Config{Runners: 1, JobWorkers: 4})
	ctx := context.Background()
	sub, err := c.Submit(ctx, smallConformance())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, sub.Job.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		`mcmutants_jobs{state="done"} 1`,
		`mcmutants_jobs_completed_total{state="done"} 1`,
		"mcmutants_queue_depth 0",
		"mcmutants_running_jobs 0",
		"# TYPE mcmutants_cells_executed_total counter",
		"mcmutants_draining 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
	// The executed counter covers the whole campaign.
	if !strings.Contains(body, "mcmutants_cells_executed_total 20") {
		t.Errorf("cells_executed_total != 20:\n%s", body)
	}
	hresp, err := http.Get(c.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hresp.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil || health.Status != "ok" {
		t.Fatalf("healthz body: %v %+v", err, health)
	}
}

func TestSSEProgressStream(t *testing.T) {
	_, c := startServer(t, Config{Runners: 1, JobWorkers: 2, ProgressEvery: time.Millisecond})
	ctx := context.Background()
	js := smallConformance()
	js.Iters = 5 // enough work for mid-run snapshots at a 1ms cadence
	sub, err := c.Submit(ctx, js)
	if err != nil {
		t.Fatal(err)
	}
	var progress []sched.Progress
	var doneEvents int
	err = c.Events(ctx, sub.Job.ID, func(name string, data json.RawMessage) error {
		switch name {
		case "progress":
			var p sched.Progress
			if err := json.Unmarshal(data, &p); err != nil {
				return err
			}
			progress = append(progress, p)
		case "done":
			doneEvents++
			var j Job
			if err := json.Unmarshal(data, &j); err != nil {
				return err
			}
			if !j.State.Terminal() {
				t.Errorf("done event with non-terminal state %s", j.State)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if doneEvents != 1 {
		t.Fatalf("got %d done events, want 1", doneEvents)
	}
	if len(progress) == 0 {
		t.Fatal("no progress events before terminal")
	}
	last := -1
	finals := 0
	for i, p := range progress {
		if p.Done < last {
			t.Fatalf("progress %d: done %d < %d (not monotonic)", i, p.Done, last)
		}
		last = p.Done
		if p.Final {
			finals++
		}
	}
	if finals != 1 || !progress[len(progress)-1].Final {
		t.Fatalf("final snapshots: %d (last final: %v)", finals, progress[len(progress)-1].Final)
	}
	if progress[len(progress)-1].Done != sub.Job.Cells {
		t.Fatalf("final done = %d, want %d", progress[len(progress)-1].Done, sub.Job.Cells)
	}

	// A late subscriber replays the terminal event immediately.
	doneEvents = 0
	if err := c.Events(ctx, sub.Job.ID, func(name string, data json.RawMessage) error {
		if name == "done" {
			doneEvents++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if doneEvents != 1 {
		t.Fatalf("late subscriber saw %d done events, want 1", doneEvents)
	}
}

func TestAdmissionControl(t *testing.T) {
	_, c, _ := queuedServer(t, Config{QueueDepth: 2, PerClient: 2})
	ctx := context.Background()
	mk := func(seed uint64) JobSpec {
		js := smallConformance()
		js.Seed = seed
		return js
	}
	// Two distinct clients fill the queue without tripping their
	// per-client caps. Their 429 retries sleep on a fake clock: every
	// retry is still sent, without waiting out the backoff.
	fake := clock.NewFake(time.Unix(0, 0))
	c1 := &Client{BaseURL: c.BaseURL, APIKey: "alice", Clock: fake}
	c2 := &Client{BaseURL: c.BaseURL, APIKey: "bob", Clock: fake}
	if _, err := c1.Submit(ctx, mk(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Submit(ctx, mk(2)); err != nil {
		t.Fatal(err)
	}
	// Queue (depth 2) is now full for any client.
	_, err := c2.Submit(ctx, mk(3))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full submit: %v, want 429", err)
	}
	if !strings.Contains(apiErr.Message, "queue full") {
		t.Fatalf("queue-full message: %q", apiErr.Message)
	}
	if !fake.Now().After(time.Unix(0, 0)) {
		t.Fatal("the rejected submit was not retried after a backoff")
	}
	// Resubmitting an already-queued spec is not an admission event.
	again, err := c1.Submit(ctx, mk(1))
	if err != nil || !again.Existing {
		t.Fatalf("idempotent resubmit under full queue: %v existing=%v", err, again)
	}
}

func TestPerClientCap(t *testing.T) {
	_, c, _ := queuedServer(t, Config{QueueDepth: 16, PerClient: 2})
	ctx := context.Background()
	// 429 retries sleep on a fake clock (see TestAdmissionControl).
	fake := clock.NewFake(time.Unix(0, 0))
	alice := &Client{BaseURL: c.BaseURL, APIKey: "alice", Clock: fake}
	for seed := uint64(1); seed <= 2; seed++ {
		js := smallConformance()
		js.Seed = seed
		if _, err := alice.Submit(ctx, js); err != nil {
			t.Fatal(err)
		}
	}
	js := smallConformance()
	js.Seed = 3
	_, err := alice.Submit(ctx, js)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("per-client submit: %v, want 429", err)
	}
	if !strings.Contains(apiErr.Message, "in flight") {
		t.Fatalf("per-client message: %q", apiErr.Message)
	}
	if !fake.Now().After(time.Unix(0, 0)) {
		t.Fatal("the rejected submit was not retried after a backoff")
	}
	// Another client is unaffected.
	bob := &Client{BaseURL: c.BaseURL, APIKey: "bob", Clock: fake}
	if _, err := bob.Submit(ctx, js); err != nil {
		t.Fatalf("bob blocked by alice's cap: %v", err)
	}
}

// TestConcurrentDuplicateSubmit: identical submissions racing through
// handleSubmit must register and enqueue the job exactly once — the
// idempotency contract would otherwise let two runners execute the
// same job against the same checkpoint path.
func TestConcurrentDuplicateSubmit(t *testing.T) {
	s, c, _ := queuedServer(t, Config{QueueDepth: 64, PerClient: 64})
	ctx := context.Background()
	const n = 16
	results := make([]*SubmitResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Submit(ctx, smallConformance())
		}(i)
	}
	wg.Wait()
	fresh := 0
	var id string
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if !results[i].Existing {
			fresh++
		}
		id = results[i].Job.ID
	}
	if fresh != 1 {
		t.Fatalf("%d submissions created the job, want exactly 1", fresh)
	}
	// The queue must hold the job exactly once: one dequeue succeeds,
	// a second finds nothing.
	if !s.dequeue(id) {
		t.Fatal("job not on the queue")
	}
	if s.dequeue(id) {
		t.Fatal("job enqueued more than once")
	}
}

// TestPerClientCapConcurrent: distinct submissions from one client
// racing each other must never exceed the in-flight cap.
func TestPerClientCapConcurrent(t *testing.T) {
	s, c, _ := queuedServer(t, Config{QueueDepth: 64, PerClient: 3})
	ctx := context.Background()
	// 429 retries sleep on a fake clock (see TestAdmissionControl); it
	// is safe for the racing submitters to share.
	alice := &Client{BaseURL: c.BaseURL, APIKey: "alice", Clock: clock.NewFake(time.Unix(0, 0))}
	const n = 12
	var wg sync.WaitGroup
	var accepted, rejected atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			js := smallConformance()
			js.Seed = uint64(i + 1)
			_, err := alice.Submit(ctx, js)
			switch {
			case err == nil:
				accepted.Add(1)
			default:
				var apiErr *APIError
				if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests {
					rejected.Add(1)
				} else {
					t.Errorf("submit %d: %v", i, err)
				}
			}
		}(i)
	}
	wg.Wait()
	// No runner drains the queue, so exactly PerClient submissions can
	// land; everything else must bounce with 429.
	if got := accepted.Load(); got != 3 {
		t.Fatalf("accepted %d submissions, want exactly 3 (the cap)", got)
	}
	if got := rejected.Load(); got != n-3 {
		t.Fatalf("rejected %d submissions, want %d", got, n-3)
	}
	if got := s.store.inFlight("alice"); got != 3 {
		t.Fatalf("in-flight count = %d, want 3", got)
	}
}

func TestValidationRejects(t *testing.T) {
	_, c, _ := queuedServer(t, Config{})
	ctx := context.Background()
	cases := []JobSpec{
		{},              // no kind
		{Kind: "bogus"}, // unknown kind
		{Kind: "conformance", Devices: []string{"NoSuchGPU"}},
		{Kind: "evaluate", Devices: []string{"AMD", "AMD"}},
		{Kind: "tune", Devices: []string{"Intel", "Intel"}},
		{Kind: "evaluate", Envs: []string{"warp-drive"}},
		{Kind: "tune", TuneEnvs: -1},
		{Kind: "conformance", Iters: -2},
	}
	for _, js := range cases {
		_, err := c.Submit(ctx, js)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %+v: err %v, want 400", js, err)
		}
	}
	// Unknown fields are rejected too — a misspelled parameter must
	// not silently select defaults.
	resp, err := http.Post(c.BaseURL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"conformance","itres":5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d", resp.StatusCode)
	}
}

// TestKindIgnoredFieldsRejected: a spec carrying a field its kind does
// not use is refused at admission. Such a field would enter the job ID
// without changing the work, forking one study into two jobs.
func TestKindIgnoredFieldsRejected(t *testing.T) {
	_, c, _ := queuedServer(t, Config{})
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(c.BaseURL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	tune := `{"kind":"tune","devices":["AMD"],"tune_envs":1,"site_iters":1,"pte_iters":1`
	if got := post(tune + `}`); got != http.StatusAccepted {
		t.Fatalf("plain tune spec: status %d, want 202", got)
	}
	for _, body := range []string{
		tune + `,"fence_bug":true,"iters":7}`,
		tune + `,"fence_bug":true}`,
		tune + `,"iters":7}`,
		tune + `,"envs":["pte"]}`,
		`{"kind":"conformance","devices":["AMD"],"tune_envs":2}`,
		`{"kind":"evaluate","devices":["AMD"],"site_iters":3}`,
	} {
		if got := post(body); got != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, got)
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, c, _ := queuedServer(t, Config{})
	ctx := context.Background()
	sub, err := c.Submit(ctx, smallConformance())
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.Cancel(ctx, sub.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateCancelled {
		t.Fatalf("cancelled queued job state = %s", j.State)
	}
	// Cancelling a terminal job conflicts.
	_, err = c.Cancel(ctx, sub.Job.ID)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: %v, want 409", err)
	}
	// Resubmission requeues it.
	again, err := c.Submit(ctx, smallConformance())
	if err != nil {
		t.Fatal(err)
	}
	if !again.Existing || !again.Requeued || again.Job.State != StateQueued || again.Job.Resumes != 1 {
		t.Fatalf("resubmit after cancel: %+v", again.Job)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s, c := startServer(t, Config{Runners: 1, JobWorkers: 1, ProgressEvery: time.Millisecond})
	ctx := context.Background()
	js := smallConformance()
	js.Iters = 3000 // long enough that cancellation always lands mid-run
	sub, err := c.Submit(ctx, js)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		s.mu.Lock()
		running := len(s.running) > 0
		s.mu.Unlock()
		if running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Cancel(ctx, sub.Job.ID); err != nil {
		t.Fatal(err)
	}
	j, err := c.Wait(ctx, sub.Job.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateCancelled {
		t.Fatalf("state after cancel = %s (error %q)", j.State, j.Error)
	}
	if j.Summary == nil || j.Summary.Done >= j.Cells {
		t.Fatalf("cancelled job summary should be partial: %+v", j.Summary)
	}
	// No report for a cancelled job.
	_, err = c.Report(ctx, j.ID)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("report of cancelled job: %v, want 409", err)
	}
}

func TestDrainRequeuesRunningJob(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir, Runners: 1, JobWorkers: 1, ProgressEvery: time.Millisecond}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, ln) }()
	c := &Client{BaseURL: "http://" + ln.Addr().String()}

	// Cells slow enough that the drain lands mid-run, fast enough
	// that the resumed server finishes the remainder quickly.
	js := smallConformance()
	js.Iters = 50
	sub, err := c.Submit(context.Background(), js)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until at least one cell completed (and is checkpointed), so
	// the resumed run has something to replay.
	deadline := time.Now().Add(60 * time.Second)
	for {
		s.mu.Lock()
		var done int
		if rj := s.running[sub.Job.ID]; rj != nil {
			done = rj.last.Done
		}
		s.mu.Unlock()
		if done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never completed a cell")
		}
		time.Sleep(time.Millisecond)
	}
	cancel() // graceful drain
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain timed out")
	}

	// The drained job is queued on disk; a new server over the same
	// state dir resumes and completes it with a byte-identical report.
	s2, c2 := startServer(t, Config{StateDir: dir, Runners: 1, JobWorkers: 4})
	_ = s2
	j, err := c2.Wait(context.Background(), sub.Job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateDone {
		t.Fatalf("resumed job state = %s (error %q)", j.State, j.Error)
	}
	if j.Resumes == 0 {
		t.Fatalf("resumed job should count a resume: %+v", j)
	}
	if j.Summary.Replayed == 0 {
		t.Fatalf("resumed job replayed no cells: %+v", j.Summary)
	}
	got, err := c2.Report(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := localConformanceArtifact(t, j.Spec)
	if !bytes.Equal(got, want) {
		t.Fatal("resumed report differs from uninterrupted local artifact")
	}
}
