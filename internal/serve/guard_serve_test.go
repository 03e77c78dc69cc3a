package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/diskio"
	"repro/internal/guard"
)

// waitForState polls the store until the job reaches want (or any
// terminal state, so a wrong outcome fails fast instead of timing out).
func waitForState(t *testing.T, s *Server, id string, want JobState) *Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		j, ok := s.store.get(id)
		if ok && j.State == want {
			return j
		}
		if ok && j.State.Terminal() && j.State != want {
			t.Fatalf("job %s reached %s (error %q), want %s", id, j.State, j.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, j.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitWatched polls until the watchdog supervises n jobs — the signal
// that runJob has passed its start transition and armed the budgets.
func waitWatched(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for s.watchdog.Watched() < n {
		if time.Now().After(deadline) {
			t.Fatalf("watchdog watches %d jobs, want %d", s.watchdog.Watched(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPoisonQuarantineAfterCrashLoop is the crash-loop regression: a
// job found running at boot used to be re-queued unconditionally, so a
// job that kills the process on every attempt produced an infinite
// boot loop. With a poison cap of N the job gets N resume chances and
// is quarantined on boot N+1 — listed, inspectable, resubmittable, and
// never fed back into the loop. Boots are simulated by re-opening the
// state directory (through a FaultFS, like the disk-crash recovery
// test) with the record forced back to running in between, which is
// exactly the disk state a kill -9 mid-campaign leaves behind.
func TestPoisonQuarantineAfterCrashLoop(t *testing.T) {
	dir := t.TempDir()
	ffs := diskio.NewFaultFS(diskio.OS{}, 7)
	const cap = 2
	cfg := Config{StateDir: dir, FS: ffs, PoisonBoots: cap, Logf: t.Logf}

	// Submit through the real API so the record carries a genuine spec
	// and ID, then force it to running — the post-kill-9 disk state.
	s0, c0, _ := queuedServer(t, cfg)
	js := smallConformance()
	ctx := context.Background()
	sub, err := c0.Submit(ctx, js)
	if err != nil {
		t.Fatal(err)
	}
	id := sub.Job.ID
	markRunning := func(st *store) {
		t.Helper()
		if _, err := st.update(id, func(j *Job) {
			j.State = StateRunning
			now := time.Now().UTC()
			j.StartedAt = &now
		}); err != nil {
			t.Fatal(err)
		}
	}
	markRunning(s0.store)

	// Each New over the surviving bytes is one boot. The first cap
	// boots re-queue with the incarnation count advancing; the next
	// boot quarantines.
	for boot := 1; boot <= cap; boot++ {
		sb, err := New(cfg)
		if err != nil {
			t.Fatalf("boot %d: %v", boot, err)
		}
		j, ok := sb.store.get(id)
		if !ok {
			t.Fatalf("boot %d: job lost", boot)
		}
		if j.State != StateQueued || j.BootIncarnations != boot {
			t.Fatalf("boot %d: state %s incarnations %d, want queued/%d", boot, j.State, j.BootIncarnations, boot)
		}
		markRunning(sb.store)
	}
	sp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, _ := sp.store.get(id)
	if j.State != StatePoisoned {
		t.Fatalf("boot %d: state %s, want poisoned", cap+1, j.State)
	}
	if !strings.Contains(j.Error, "quarantined") || !j.State.Terminal() {
		t.Fatalf("poisoned job not a dead letter: state %s error %q", j.State, j.Error)
	}

	// A fresh server over the same state is healthy: the dead letter
	// stays parked (recovery must not resurrect it), readiness is green
	// and other jobs run normally.
	s, c := startServer(t, Config{StateDir: dir, PoisonBoots: cap, Runners: 1, JobWorkers: 4})
	if j, _ := s.store.get(id); j.State != StatePoisoned {
		t.Fatalf("recovery changed poisoned job to %s", j.State)
	}
	resp, err := http.Get(c.BaseURL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d with a quarantined job, want 200", resp.StatusCode)
	}
	mresp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(mbuf.String(), `mcmutants_jobs{state="poisoned"} 1`) {
		t.Error("metrics do not expose the poisoned job")
	}

	other := smallConformance()
	other.Seed = 11
	osub, err := c.Submit(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if oj, err := c.Wait(ctx, osub.Job.ID, 5*time.Millisecond); err != nil || oj.State != StateDone {
		t.Fatalf("fresh job on recovered server: %v / %+v", err, oj)
	}

	// Resubmitting the quarantined spec is the explicit human override:
	// the job re-queues with a fresh incarnation budget and completes
	// byte-identically to the CLI artifact.
	rsub, err := c.Submit(ctx, js)
	if err != nil {
		t.Fatal(err)
	}
	if !rsub.Existing || !rsub.Requeued {
		t.Fatalf("resubmission = %+v, want existing+requeued", rsub)
	}
	if rsub.Job.BootIncarnations != 0 {
		t.Fatalf("resubmission kept %d boot incarnations, want 0", rsub.Job.BootIncarnations)
	}
	rj, err := c.Wait(ctx, id, 5*time.Millisecond)
	if err != nil || rj.State != StateDone {
		t.Fatalf("resubmitted job: %v / %+v", err, rj)
	}
	got, err := c.Report(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if want := localConformanceArtifact(t, rj.Spec); !bytes.Equal(got, want) {
		t.Fatal("resubmitted dead letter's report differs from the CLI artifact")
	}
}

// TestWatchdogDeadlineAndStallFakeClock drives both budget expiries
// through the injected clock, with zero wall-clock sleeps deciding the
// outcome: two distributed jobs with no workers connected are a
// genuine wedge (the coordinator waits forever, progress counters
// frozen), and the fake clock decides exactly which budget fires at
// which tick. Expiry must drain each job to its typed terminal state
// without killing the other job, the server, or any goroutine's
// cleanup path.
func TestWatchdogDeadlineAndStallFakeClock(t *testing.T) {
	fc := clock.NewFake(time.Unix(1_700_000_000, 0))
	s, c := startServer(t, Config{
		Runners: 2, JobWorkers: 2, EnableDist: true,
		Clock: fc, GuardEvery: time.Hour, // ticks are driven manually
	})
	ctx := context.Background()

	// Warm the server up (runner pool, accept loop, guard ticker all
	// spawned) before taking the goroutine baseline, so the settlement
	// check below measures only the expired jobs' cleanup.
	warm := smallConformance()
	warm.Seed = 9
	wsub, err := c.Submit(ctx, warm)
	if err != nil {
		t.Fatal(err)
	}
	if wj, err := c.Wait(ctx, wsub.Job.ID, 5*time.Millisecond); err != nil || wj.State != StateDone {
		t.Fatalf("warmup job: %v / %+v", err, wj)
	}
	baseline := runtime.NumGoroutine()

	jsWall := smallConformance()
	jsWall.Distributed = true
	jsWall.WallDeadline = Duration(time.Hour)
	jsStall := smallConformance()
	jsStall.Distributed = true
	jsStall.Seed = 8
	jsStall.StallTimeout = Duration(30 * time.Minute)

	subWall, err := c.Submit(ctx, jsWall)
	if err != nil {
		t.Fatal(err)
	}
	subStall, err := c.Submit(ctx, jsStall)
	if err != nil {
		t.Fatal(err)
	}
	waitWatched(t, s, 2)

	// 31 minutes in: the stall budget is blown, the wall budget is not.
	fc.Advance(31 * time.Minute)
	s.guardTick()
	jStall := waitForState(t, s, subStall.Job.ID, StateStalled)
	if !strings.Contains(jStall.Error, "no progress") {
		t.Fatalf("stalled job error %q does not explain the stall", jStall.Error)
	}
	if j, _ := s.store.get(subWall.Job.ID); j.State != StateRunning {
		t.Fatalf("stall expiry hit the wrong job: deadline job is %s", j.State)
	}

	// 61 minutes in: the wall deadline fires.
	fc.Advance(30 * time.Minute)
	s.guardTick()
	jWall := waitForState(t, s, subWall.Job.ID, StateDeadlineExceeded)
	if !strings.Contains(jWall.Error, "deadline exceeded") {
		t.Fatalf("deadline job error %q does not explain the expiry", jWall.Error)
	}

	// Both drains were graceful: every goroutine unwound and the server
	// still runs jobs.
	settledGoroutines(t, baseline)
	quick := smallConformance()
	quick.Seed = 10
	qsub, err := c.Submit(ctx, quick)
	if err != nil {
		t.Fatal(err)
	}
	if qj, err := c.Wait(ctx, qsub.Job.ID, 5*time.Millisecond); err != nil || qj.State != StateDone {
		t.Fatalf("server unhealthy after expiries: %v / %+v", err, qj)
	}
}

// TestBrownoutShedsAndRecovers scripts a memory-pressure trajectory
// through the injected sampler: soft pauses drain and refuses
// submissions with 429+Retry-After, hard cancels the newest running
// job into the (non-terminal) shed state, and recovery re-queues it.
func TestBrownoutShedsAndRecovers(t *testing.T) {
	var heap atomic.Uint64
	s, c := startServer(t, Config{
		Runners: 1, JobWorkers: 2, EnableDist: true,
		MemSoftBytes: 1 << 20, MemHardBytes: 2 << 20,
		ReadMem: heap.Load, GuardEvery: time.Hour,
	})
	ctx := context.Background()

	js := smallConformance()
	js.Distributed = true // no workers: runs until shed, completes nothing
	sub, err := c.Submit(ctx, js)
	if err != nil {
		t.Fatal(err)
	}
	id := sub.Job.ID
	waitForState(t, s, id, StateRunning)

	// Soft watermark: drain pauses, submissions shed. The raw request
	// matters — serve.Client transparently retries 429.
	heap.Store(1<<20 + 1)
	s.guardTick()
	fresh := smallConformance()
	fresh.Seed = 99
	body, _ := json.Marshal(fresh)
	resp, err := http.Post(c.BaseURL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rbuf bytes.Buffer
	rbuf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submission under soft watermark = %d (%s), want 429", resp.StatusCode, rbuf.String())
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After hint")
	}
	if !strings.Contains(rbuf.String(), "soft") {
		t.Errorf("shed response %q does not name the watermark", rbuf.String())
	}
	hresp, err := http.Get(c.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d during brownout, want 200 (non-gating)", hresp.StatusCode)
	}
	if health["brownout"] != "soft" {
		t.Errorf("healthz brownout = %v, want soft", health["brownout"])
	}

	// Hard watermark: the newest running job is cancelled into shed —
	// parked, not terminal, no runner.
	heap.Store(2<<20 + 1)
	s.guardTick()
	sj := waitForState(t, s, id, StateShed)
	if sj.State.Terminal() {
		t.Fatal("shed must not be terminal")
	}
	if sj.StartedAt != nil {
		t.Error("shed job still claims a start time")
	}
	mresp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"mcmutants_guard_brownout_level 2",
		"mcmutants_guard_submissions_shed_total 1",
		"mcmutants_guard_jobs_shed_total 1",
	} {
		if !strings.Contains(mbuf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Pressure clears: the shed job re-queues and runs again.
	heap.Store(0)
	s.guardTick()
	rj := waitForState(t, s, id, StateRunning)
	if rj.Resumes == 0 {
		t.Error("re-queued shed job counts no resume")
	}
	if _, err := c.Cancel(ctx, id); err != nil {
		t.Fatal(err)
	}
	if j, err := c.Wait(ctx, id, 5*time.Millisecond); err != nil || j.State != StateCancelled {
		t.Fatalf("cancel after recovery: %v / %+v", err, j)
	}
}

// TestBudgetPolicyAndJobIDStability: caps reject at admission with
// 400, and server-side budget defaults must not leak into job
// identity — the same budget-free spec hashes to the same ID on a
// server with defaults and a server without.
func TestBudgetPolicyAndJobIDStability(t *testing.T) {
	ctx := context.Background()
	_, capped, _ := queuedServer(t, Config{Budgets: guard.Limits{MaxWallDeadline: 30 * time.Minute}})
	over := smallConformance()
	over.WallDeadline = Duration(time.Hour)
	if _, err := capped.Submit(ctx, over); err == nil {
		t.Fatal("over-cap wall deadline admitted")
	} else {
		var ae *APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
			t.Fatalf("over-cap rejection = %v, want 400", err)
		}
	}
	neg := smallConformance()
	neg.StallTimeout = Duration(-time.Second)
	if _, err := capped.Submit(ctx, neg); err == nil {
		t.Fatal("negative stall budget admitted")
	}

	_, plain, _ := queuedServer(t, Config{})
	_, defaulted, _ := queuedServer(t, Config{Budgets: guard.Limits{
		DefaultWallDeadline: time.Hour,
		DefaultCellTimeout:  time.Minute,
		DefaultStallTimeout: time.Hour,
	}})
	js := smallConformance()
	a, err := plain.Submit(ctx, js)
	if err != nil {
		t.Fatal(err)
	}
	b, err := defaulted.Submit(ctx, js)
	if err != nil {
		t.Fatal(err)
	}
	if a.Job.ID != b.Job.ID {
		t.Fatalf("server defaults changed job identity: %s vs %s", a.Job.ID, b.Job.ID)
	}
}

// TestGuardedRunByteIdentity is the no-op guarantee: a job running
// under generous budgets that never fire must produce an artifact
// byte-identical to the unguarded CLI run of the same spec.
func TestGuardedRunByteIdentity(t *testing.T) {
	_, c := startServer(t, Config{Runners: 1, JobWorkers: 3, Budgets: guard.Limits{
		DefaultWallDeadline: time.Hour,
		DefaultStallTimeout: time.Hour,
	}})
	ctx := context.Background()
	js := smallConformance()
	js.WallDeadline = Duration(2 * time.Hour)
	js.CellTimeout = Duration(30 * time.Second)
	js.StallTimeout = Duration(time.Hour)
	sub, err := c.Submit(ctx, js)
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.Wait(ctx, sub.Job.ID, 5*time.Millisecond)
	if err != nil || j.State != StateDone {
		t.Fatalf("guarded job: %v / %+v", err, j)
	}
	got, err := c.Report(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := localConformanceArtifact(t, j.Spec); !bytes.Equal(got, want) {
		t.Fatal("guarded run differs from unguarded CLI artifact")
	}
}

// TestBuildInfoSurfaces: the build identity shows up in /healthz and
// as the mcmutants_build_info metric.
func TestBuildInfoSurfaces(t *testing.T) {
	_, c, hs := queuedServer(t, Config{})
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if v, _ := health["version"].(string); v == "" {
		t.Errorf("healthz version missing: %v", health)
	}
	if g, _ := health["go"].(string); g == "" {
		t.Errorf("healthz go version missing: %v", health)
	}
	mresp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(buf.String(), "mcmutants_build_info{version=") {
		t.Error("metrics missing mcmutants_build_info")
	}
}
