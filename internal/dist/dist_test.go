package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// newFakeClock is the deterministic clock shared by the coordinator
// and the workers: Sleep advances it instantly, so waits (acquire
// polls, retry backoffs) are what move time forward. Lease expiry then
// depends only on the interleaving of coordination events, not on
// host speed.
func newFakeClock() *clock.Fake { return clock.NewFake(time.Unix(1_700_000_000, 0)) }

// distSpec builds a deterministic campaign across three devices.
func distSpec(cells int) sched.Spec {
	spec := sched.Spec{Name: "dist-test", Seed: 7}
	for i := 0; i < cells; i++ {
		spec.Cells = append(spec.Cells, sched.Cell{
			Key:    fmt.Sprintf("cell-%02d", i),
			Device: fmt.Sprintf("dev%d", i%3),
		})
	}
	return spec
}

type distVal struct {
	Key  string `json:"key"`
	Draw int    `json:"draw"`
}

// distExec mixes successes, retried transients and permanent
// failures, all pure functions of the split-seed RNG — so any worker
// executing any cell at any time computes the same result.
func distExec(ctx context.Context, c sched.Cell, rng *xrand.Rand) (distVal, error) {
	draw := rng.Intn(100)
	switch {
	case draw < 8:
		return distVal{}, sched.Transient(fmt.Errorf("flaky %s", c.Key))
	case draw < 20:
		return distVal{}, fmt.Errorf("permanent %s", c.Key)
	}
	return distVal{Key: c.Key, Draw: draw}, nil
}

// distExecs is distExec as the per-worker exec factory SchedRunner
// takes.
func distExecs() sched.Exec[distVal] { return distExec }

const testRetries = 2

// baselineReport runs the spec in-process — the single-process oracle
// every distributed run must match.
func baselineReport(t *testing.T, spec sched.Spec) *sched.Report[distVal] {
	t.Helper()
	rep, err := sched.RunContext(context.Background(), spec, distExec, sched.Options[distVal]{
		Workers:    2,
		MaxRetries: testRetries,
		Collect:    true,
	})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	return rep
}

// projCell is the byte-identity-relevant projection of one result.
type projCell struct {
	Key, Device string
	Value       distVal
	Err         string
	Attempts    int
	Quarantined bool
	Interrupted bool
}

func project(rep *sched.Report[distVal]) []projCell {
	out := make([]projCell, len(rep.Results))
	for i, r := range rep.Results {
		out[i] = projCell{
			Key: r.Cell.Key, Device: r.Cell.Device,
			Value: r.Value, Attempts: r.Attempts,
			Quarantined: r.Quarantined, Interrupted: r.Interrupted,
		}
		if r.Err != nil {
			out[i].Err = r.Err.Error()
		}
	}
	return out
}

func requireSameReport(t *testing.T, label string, want, got *sched.Report[distVal]) {
	t.Helper()
	pw, pg := project(want), project(got)
	for i := range pw {
		if got.Results[i].Replayed {
			// Replayed cells carry no attempt count (exactly like a
			// local checkpoint replay); artifacts never encode attempts
			// for successful cells, so this is outside byte-identity.
			pw[i].Attempts, pg[i].Attempts = 0, 0
		}
		if pw[i] != pg[i] {
			t.Fatalf("%s: cell %d diverged:\n want %+v\n  got %+v", label, i, pw[i], pg[i])
		}
	}
	if want.Failed != got.Failed || want.Quarantined != got.Quarantined ||
		want.Retried != got.Retried || want.Interrupted != got.Interrupted {
		t.Fatalf("%s: counters diverged: want failed=%d quar=%d retried=%d intr=%d, got failed=%d quar=%d retried=%d intr=%d",
			label, want.Failed, want.Quarantined, want.Retried, want.Interrupted,
			got.Failed, got.Quarantined, got.Retried, got.Interrupted)
	}
	if !reflect.DeepEqual(want.Health, got.Health) {
		t.Fatalf("%s: health diverged: want %+v got %+v", label, want.Health, got.Health)
	}
}

// distRun wires a coordinator plus n workers over in-process
// transports (wrapped per-worker by mkTransport when non-nil) and
// runs the campaign to completion under a shared fake clock.
type distRun struct {
	spec        sched.Spec
	workers     int
	rangeCells  int
	leaseTTL    time.Duration
	maxReissues int
	mkTransport func(i int, inner Transport) Transport
}

func (d distRun) run(t *testing.T) (*sched.Report[distVal], Status) {
	return d.runWithClock(t, nil)
}

func (d distRun) runWithClock(t *testing.T, onClock func(*clock.Fake)) (*sched.Report[distVal], Status) {
	t.Helper()
	clk := newFakeClock()
	if onClock != nil {
		onClock(clk)
	}
	ttl := d.leaseTTL
	if ttl <= 0 {
		ttl = 2 * time.Second
	}
	rc := d.rangeCells
	if rc <= 0 {
		rc = 3
	}
	coord, err := NewCoordinator("test", d.spec, nil, nil, CoordinatorOptions{
		LeaseTTL:    ttl,
		RangeCells:  rc,
		MaxReissues: d.maxReissues,
		Clock:       clk,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	hub := NewHub()
	if err := hub.Register("test", coord); err != nil {
		t.Fatalf("Register: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < d.workers; i++ {
		tr := Transport(hub.LocalTransport("test"))
		if d.mkTransport != nil {
			tr = d.mkTransport(i, tr)
		}
		w := NewWorker(tr, d.spec,
			SchedRunner(d.spec, distExecs, SchedRunnerOptions{Parallel: 2, Retries: testRetries}),
			WorkerOptions{
				ID:          fmt.Sprintf("w%d", i),
				RPCBackoff:  50 * time.Millisecond,
				AcquireWait: 100 * time.Millisecond,
				Clock:       clk,
			})
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker errors are expected under fault injection (crash,
			// partition exhaustion); correctness is judged on the
			// assembled report.
			_ = w.Run(ctx)
		}()
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator did not complete: %v (status %+v)", err, coord.Status())
	}
	cancel()
	wg.Wait()
	rep, err := sched.AssembleReport[distVal](d.spec, coord.Segments(), nil)
	if err != nil {
		t.Fatalf("AssembleReport: %v", err)
	}
	return rep, coord.Status()
}

// TestDistributedMatchesLocal: a clean distributed run matches the
// single-process oracle at shard counts 1, 2 and 4.
func TestDistributedMatchesLocal(t *testing.T) {
	spec := distSpec(16)
	want := baselineReport(t, spec)
	for _, shards := range []int{1, 2, 4} {
		got, st := distRun{spec: spec, workers: shards, maxReissues: 10_000}.run(t)
		requireSameReport(t, fmt.Sprintf("shards=%d", shards), want, got)
		if !st.Complete || st.Done != len(spec.Cells) {
			t.Fatalf("shards=%d: status %+v", shards, st)
		}
	}
}

// TestDistributedOverHTTP: the same campaign through a real HTTP hub
// and HTTPTransport workers, with real clocks.
func TestDistributedOverHTTP(t *testing.T) {
	spec := distSpec(12)
	want := baselineReport(t, spec)

	hub := NewHub()
	coord, err := NewCoordinator("http-test", spec, nil, nil, CoordinatorOptions{
		LeaseTTL: 5 * time.Second, RangeCells: 4,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	if err := hub.Register("http-test", coord); err != nil {
		t.Fatalf("Register: %v", err)
	}
	srv := httptest.NewServer(hub)
	defer srv.Close()

	infos, err := ListCampaigns(context.Background(), srv.URL, nil)
	if err != nil {
		t.Fatalf("ListCampaigns: %v", err)
	}
	if len(infos) != 1 || infos[0].Name != "http-test" || infos[0].Manifest != spec.Manifest() {
		t.Fatalf("ListCampaigns = %+v", infos)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		w := NewWorker(&HTTPTransport{BaseURL: srv.URL, Campaign: "http-test"}, spec,
			SchedRunner(spec, distExecs, SchedRunnerOptions{Parallel: 2, Retries: testRetries}),
			WorkerOptions{ID: fmt.Sprintf("hw%d", i), AcquireWait: 20 * time.Millisecond})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	wg.Wait()
	got, err := sched.AssembleReport[distVal](spec, coord.Segments(), nil)
	if err != nil {
		t.Fatalf("AssembleReport: %v", err)
	}
	requireSameReport(t, "http", want, got)
}

// TestManifestMismatchRefused: a worker whose local spec disagrees
// with the coordinator's must refuse work.
func TestManifestMismatchRefused(t *testing.T) {
	spec := distSpec(6)
	coord, err := NewCoordinator("mm", spec, nil, nil, CoordinatorOptions{})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	hub := NewHub()
	hub.Register("mm", coord)
	skewed := distSpec(7) // one extra cell: different grid
	w := NewWorker(hub.LocalTransport("mm"), skewed, SchedRunner(skewed, distExecs, SchedRunnerOptions{}),
		WorkerOptions{ID: "skew", Clock: newFakeClock()})
	if err := w.Run(context.Background()); err == nil {
		t.Fatal("skewed worker accepted work")
	}
}

// TestCoordinatorSeeding: checkpoint-seeded cells are replayed, not
// re-issued, and the assembled report marks them Replayed.
func TestCoordinatorSeeding(t *testing.T) {
	spec := distSpec(9)
	full := baselineReport(t, spec)
	segs, err := sched.ExportSegments(full)
	if err != nil {
		t.Fatalf("ExportSegments: %v", err)
	}
	// Seed the first four cells that succeeded, as a resume would.
	seed := map[string]sched.Segment{}
	for _, s := range segs {
		if len(seed) == 4 {
			break
		}
		if s.Err == "" {
			s.Replayed = true
			seed[s.Key] = s
		}
	}
	clk := newFakeClock()
	coord, err := NewCoordinator("seeded", spec, nil, seed, CoordinatorOptions{
		Clock: clk, RangeCells: 2,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	hub := NewHub()
	hub.Register("seeded", coord)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w := NewWorker(hub.LocalTransport("seeded"), spec,
		SchedRunner(spec, distExecs, SchedRunnerOptions{Parallel: 2, Retries: testRetries}),
		WorkerOptions{ID: "w0", Clock: clk})
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
	rep, err := sched.AssembleReport[distVal](spec, coord.Segments(), nil)
	if err != nil {
		t.Fatalf("AssembleReport: %v", err)
	}
	if rep.Replayed != len(seed) {
		t.Fatalf("Replayed = %d, want %d", rep.Replayed, len(seed))
	}
	requireSameReport(t, "seeded", full, rep)
}

// TestWorkerUnknownCampaignFailsFast: once the coordinator unregisters
// the campaign, the worker's next RPC fails with ErrUnknownCampaign
// immediately — no backoff retries against a campaign that cannot come
// back — over both the in-process and the HTTP transport.
func TestWorkerUnknownCampaignFailsFast(t *testing.T) {
	spec := distSpec(6)
	for _, transport := range []string{"local", "http"} {
		t.Run(transport, func(t *testing.T) {
			coord, err := NewCoordinator("gone", spec, nil, nil, CoordinatorOptions{LeaseTTL: time.Hour, RangeCells: 3})
			if err != nil {
				t.Fatalf("NewCoordinator: %v", err)
			}
			hub := NewHub()
			if err := hub.Register("gone", coord); err != nil {
				t.Fatalf("Register: %v", err)
			}
			tr := hub.LocalTransport("gone")
			if transport == "http" {
				srv := httptest.NewServer(hub)
				defer srv.Close()
				tr = &HTTPTransport{BaseURL: srv.URL, Campaign: "gone"}
			}
			inner := SchedRunner(spec, distExecs, SchedRunnerOptions{Retries: testRetries})
			// The campaign finishes without this worker mid-lease: its
			// delivery is the first RPC to find the campaign gone.
			run := func(ctx context.Context, cells []sched.Cell, onCellStart func()) ([]sched.Segment, error) {
				hub.Unregister("gone")
				return inner(ctx, cells, onCellStart)
			}
			clk := newFakeClock()
			start := clk.Now()
			w := NewWorker(tr, spec, run, WorkerOptions{ID: "w0", Clock: clk})
			err = w.Run(context.Background())
			if !errors.Is(err, ErrUnknownCampaign) {
				t.Fatalf("Run = %v, want ErrUnknownCampaign", err)
			}
			if slept := clk.Now().Sub(start); slept != 0 {
				t.Fatalf("worker slept %v retrying an unregistered campaign, want 0", slept)
			}
		})
	}
}
