package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/wgsl"
	"repro/internal/xrand"
)

// serveWorkload is the campaign server on loopback: runners job runners
// with jobWorkers scheduler workers each, driven by clients closed-loop
// clients that each keep one job in flight. Every job is a distinct
// small conformance campaign (one device, PTE, few iterations, the
// fence-dropping driver); a client waits for the SSE done event, then
// fetches the report.
type serveWorkload struct {
	device                       string
	iters                        int
	runners, jobWorkers, clients int
	// minJobs keeps submitting past --seconds until this many jobs ran:
	// twenty latency samples beyond the p90, so that one slow job moves
	// it less.
	minJobs int
	// boots is how many servers are booted to measure set-up; the last
	// one serves the workload.
	boots int
}

var defaultServe = serveWorkload{device: "AMD", iters: 2, runners: 2, jobWorkers: 1, clients: 2, minJobs: 200, boots: 5}

// spec is job i of the run.
func (w serveWorkload) spec(seed uint64, i int) serve.JobSpec {
	s := xrand.DeriveSeed(seed, "mcbench-serve", strconv.Itoa(i))
	if s == 0 {
		s = 1 // 0 selects the CLI default seed
	}
	return serve.JobSpec{Kind: "conformance", Devices: []string{w.device}, Envs: []string{"pte"},
		Iters: w.iters, FenceBug: true, Seed: s}
}

// server is a booted in-process campaign server.
type server struct {
	base string
	stop func() error
}

// boot starts a server over stateDir and waits until it answers
// /healthz, returning the time from serve.New until then.
func (b *bench) boot(ctx context.Context, w serveWorkload, stateDir string) (*server, time.Duration, error) {
	cfg := serve.Config{StateDir: stateDir, Runners: w.runners, JobWorkers: w.jobWorkers}
	if b.tr != nil {
		cfg.FS = newTracedFS(nil, b.tr, map[string]string{stateDir: "store", filepath.Join(stateDir, "ckpt"): "ckpt"})
	}
	t0 := time.Now()
	sp := b.tr.child("serve.boot")
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	runCtx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(runCtx, ln) }()
	s := &server{base: "http://" + ln.Addr().String(), stop: func() error { cancel(); return <-done }}
	if err := waitHealthy(ctx, s.base); err != nil {
		s.stop()
		return nil, 0, err
	}
	sp.end()
	return s, time.Since(t0), nil
}

// waitHealthy polls /healthz until the server answers 200.
func waitHealthy(ctx context.Context, base string) error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server never became healthy: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// jobRecord is one job as its client saw it.
type jobRecord struct {
	index   int
	spec    serve.JobSpec
	latency time.Duration
	report  []byte
	cells   int
	err     error
	final   sched.Progress
}

// serve measures the campaign server.
func (b *bench) serve(ctx context.Context, o *outcome, w serveWorkload) error {
	o.workers = w.jobWorkers
	defer b.tr.enter("serve.run").end()
	var srv *server
	for k := 0; k < w.boots; k++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		s, d, err := b.boot(ctx, w, filepath.Join(b.dir, fmt.Sprintf("state-%d", k)))
		if err != nil {
			return err
		}
		srv = s
		o.setups = append(o.setups, d)
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()

	tr := &http.Transport{MaxIdleConnsPerHost: 2 * w.clients}
	defer tr.CloseIdleConnections()
	var rt http.RoundTripper = tr
	if b.tr != nil {
		rt = &tracedTransport{inner: tr, t: b.tr}
	}
	httpc := &http.Client{Transport: rt}

	hits0, miss0 := harness.SharedClassifier().Stats()
	var (
		next    atomic.Int64
		mu      sync.Mutex
		records []jobRecord
		wg      sync.WaitGroup
	)
	stopRSS := sampleRSS(o)
	start := time.Now()
	deadline := start.Add(runLimit / 2)
	for c := 0; c < w.clients; c++ {
		cl := &serve.Client{BaseURL: srv.base, APIKey: fmt.Sprintf("mcbench-%d", c), HTTPClient: httpc, MaxRetries: -1}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				now := time.Now()
				if (now.Sub(start) >= b.seconds && i >= w.minJobs) || now.After(deadline) || ctx.Err() != nil {
					return
				}
				rec := b.job(ctx, cl, w.spec(b.seed, i))
				rec.index = i
				mu.Lock()
				records = append(records, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	o.window = time.Since(start)
	if err := stopRSS(); err != nil {
		return err
	}
	hits1, miss1 := harness.SharedClassifier().Stats()
	o.classHits, o.classLookups = hits1-hits0, hits1-hits0+miss1-miss0
	err := srv.stop()
	srv = nil
	if err != nil {
		return err
	}

	// Every report must be byte-identical to the artifact core produces
	// locally for the same spec.
	if err := verifyReports(ctx, records, w); err != nil {
		return err
	}
	sort.Slice(records, func(i, j int) bool { return records[i].index < records[j].index })
	for _, r := range records {
		o.attempted++
		o.digests = append(o.digests, digest(r.report))
		if r.err != nil {
			o.failed++
			o.problems = append(o.problems, fmt.Sprintf("job seed %d: %v", r.spec.Seed, r.err))
			o.latencies = append(o.latencies, o.window)
			continue
		}
		o.okJobs++
		o.okCells += r.cells
		o.latencies = append(o.latencies, r.latency)
		o.finals = append(o.finals, r.final)
		o.launches += float64(r.final.Executed * w.iters)
	}
	o.units = len(records)
	if o.units > 0 {
		o.launches /= float64(o.units)
	}
	if b.tr == nil {
		return nil
	}
	study, err := core.NewStudy()
	if err != nil {
		return err
	}
	env, err := core.EnvByName("pte", 16, 32)
	if err != nil {
		return err
	}
	var cells []replayCell
	for _, test := range study.Suite.Conformance {
		cells = append(cells, replayCell{test: test, device: w.device, env: env,
			lower: true, driver: wgsl.DriverFenceDropping, iters: w.iters})
	}
	return replay(ctx, b.tr, cells, b.seed)
}

// sampleRSS records the resident high-water mark of every second in
// o.rssPeaks until stop is called; stop records the last, partial second.
func sampleRSS(o *outcome) (stop func() error) {
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	sample := func() {
		rss, err := peakRSSMiB()
		resetPeakRSS()
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		o.rssPeaks = append(o.rssPeaks, rss)
	}
	resetPeakRSS()
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return func() error {
		close(done)
		wg.Wait()
		sample()
		return firstErr
	}
}

// job runs one job closed-loop: Submit, stream events until done, then
// fetch the report.
func (b *bench) job(ctx context.Context, cl *serve.Client, spec serve.JobSpec) jobRecord {
	rec := jobRecord{spec: spec}
	root := b.tr.begin("serve.job", 0)
	defer root.end()
	t0 := time.Now()
	sub, err := cl.Submit(ctx, spec)
	t1 := time.Now()
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	var final *serve.Job
	events := 0
	err = cl.Events(ctx, sub.Job.ID, func(name string, data json.RawMessage) error {
		events++
		switch name {
		case "progress":
			if b.tr != nil {
				var p sched.Progress
				if err := json.Unmarshal(data, &p); err != nil {
					return err
				}
				if p.Final {
					rec.final = p
				}
			}
		case "done":
			var j serve.Job
			if err := json.Unmarshal(data, &j); err != nil {
				return err
			}
			final = &j
		}
		return nil
	})
	switch {
	case err != nil:
		rec.err = fmt.Errorf("events: %w", err)
		return rec
	case final == nil:
		rec.err = fmt.Errorf("event stream of job %s ended without done", sub.Job.ID)
		return rec
	case final.State != serve.StateDone:
		rec.err = fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error)
		return rec
	}
	rec.report, err = cl.Report(ctx, sub.Job.ID)
	t4 := time.Now()
	if err != nil {
		rec.err = fmt.Errorf("report: %w", err)
		return rec
	}
	rec.latency = t4.Sub(t0)
	rec.cells = final.Cells
	if b.tr != nil && final.StartedAt != nil && final.FinishedAt != nil {
		// The server runs in this process, so its job timestamps share
		// the client's clock.
		started, finished := *final.StartedAt, *final.FinishedAt
		queued := started
		if queued.Before(t1) {
			queued = t1
		}
		b.tr.record("serve.submit", root.id, t0, t1)
		b.tr.record("serve.queue", root.id, t1, queued)
		b.tr.record("serve.exec", root.id, started, finished)
		b.tr.record("serve.report", root.id, finished, t4)
		b.tr.add("serve.events", int64(events))
	}
	return rec
}

// verifyReports computes each job's artifact locally, on two
// goroutines, and marks every job whose report differs as failed.
func verifyReports(ctx context.Context, records []jobRecord, w serveWorkload) error {
	study, err := core.NewStudy()
	if err != nil {
		return err
	}
	env, err := core.EnvByName("pte", 16, 32)
	if err != nil {
		return err
	}
	const verifiers = 2
	errs := make([]error, verifiers)
	var wg sync.WaitGroup
	for v := 0; v < verifiers; v++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := v; i < len(records); i += verifiers {
				r := &records[i]
				if r.err != nil {
					continue
				}
				p := core.Platform{Device: w.device, Driver: wgsl.DriverFenceDropping}
				reports, err := study.CheckFleetConformanceCtx(ctx, []core.Platform{p}, env, r.spec.Iters, r.spec.Seed, core.CampaignOptions{Workers: 1})
				if err != nil {
					errs[v] = err
					return
				}
				var buf bytes.Buffer
				if err := (&core.CampaignArtifact{Kind: "conformance", Conformance: reports}).Encode(&buf); err != nil {
					errs[v] = err
					return
				}
				if !bytes.Equal(buf.Bytes(), r.report) {
					r.err = fmt.Errorf("report sha256 %s differs from the local artifact %s", digest(r.report), digest(buf.Bytes()))
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("local oracle: %w", err)
		}
	}
	return nil
}
