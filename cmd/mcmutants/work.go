package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dist"
)

// distFlags is the campaign subcommand's distributed-coordination flag
// group. With -workers-addr set, the campaign process becomes a
// coordinator: it serves the cell grid as leased ranges over HTTP and
// merges worker deliveries instead of executing cells itself.
type distFlags struct {
	addr       *string
	leaseTTL   *time.Duration
	rangeCells *int
	stall      *time.Duration
}

// addDistFlags registers the coordinator flags on fs.
func addDistFlags(fs *flag.FlagSet) *distFlags {
	return &distFlags{
		addr: fs.String("workers-addr", "",
			"coordinate remote `mcmutants work` processes on this listen address instead of executing locally (port 0 picks a free port, printed on stdout)"),
		leaseTTL: fs.Duration("lease-ttl", 10*time.Second,
			"worker lease deadline; a worker that misses renewal forfeits its range (with -workers-addr)"),
		rangeCells: fs.Int("range-cells", 8, "cells per leased range (with -workers-addr)"),
		stall: fs.Duration("stall-timeout", 0,
			"complete degraded when no worker makes progress for this long (0: wait for workers forever; with -workers-addr)"),
	}
}

// validate rejects nonsensical coordination parameters at flag-check
// time, before any campaign work begins.
func (df *distFlags) validate() error {
	if *df.addr == "" {
		return nil
	}
	if *df.leaseTTL <= 0 {
		return fmt.Errorf("-lease-ttl must be positive")
	}
	if *df.rangeCells <= 0 {
		return fmt.Errorf("-range-cells must be positive")
	}
	if *df.stall < 0 {
		return fmt.Errorf("-stall-timeout must be non-negative")
	}
	return nil
}

// serveHub starts the coordination HTTP server. The bound address goes
// to stdout (like serve) so scripts using port 0 learn the port. The
// returned stop function must be deferred.
func (df *distFlags) serveHub() (*dist.Hub, func(), error) {
	hub := dist.NewHub()
	ln, err := net.Listen("tcp", *df.addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: hub}
	go srv.Serve(ln)
	fmt.Printf("coordinating workers on http://%s\n", ln.Addr())
	return hub, func() { srv.Close() }, nil
}

// options builds the coordinator options; the campaign registers
// under its kind.
func (df *distFlags) options(hub *dist.Hub, logf func(string, ...any)) *core.DistOptions {
	return &core.DistOptions{
		Hub:          hub,
		LeaseTTL:     *df.leaseTTL,
		RangeCells:   *df.rangeCells,
		StallTimeout: *df.stall,
		Logf:         logf,
	}
}

// cmdWork runs the worker side of a distributed campaign: it polls the
// coordinator's campaign directory, rebuilds each advertised campaign
// locally from its wire descriptor, verifies the spec manifest matches
// (a version- or flag-skewed worker refuses work rather than corrupting
// the merge), then executes leased cell ranges until the campaign
// completes. Results are delivered as checkpoint-shaped segments; the
// coordinator merges them first-wins by cell identity, so worker
// crashes, restarts and duplicated deliveries never change the report.
func cmdWork(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("work", flag.ContinueOnError)
	coordinator := fs.String("coordinator", "", "coordinator base URL, e.g. http://host:8345 (required)")
	parallel := fs.Int("parallel", 4, "scheduler workers per leased range (any count yields identical results)")
	id := fs.String("id", "", "worker identity reported to the coordinator (default host-pid)")
	poll := fs.Duration("poll", 2*time.Second, "campaign directory poll interval")
	once := fs.Bool("once", false, "exit once work is drained and the coordinator has no more campaigns (or goes away)")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	pf := addProfileFlags(fs)
	chf := addCacheFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordinator == "" {
		return fmt.Errorf("-coordinator is required")
	}
	if *parallel <= 0 {
		return fmt.Errorf("-parallel must be positive")
	}
	if *poll <= 0 {
		return fmt.Errorf("-poll must be positive")
	}
	if err := probeOutputPaths(*pf.cpu, *pf.mem); err != nil {
		return err
	}
	// The worker's local result cache: leased cells already computed
	// under identical parameters (any worker, any campaign run) are
	// served from disk and delivered tagged as hits.
	cache, err := chf.open()
	if err != nil {
		return err
	}
	defer cacheSummary(os.Stderr, cache)
	// Workers are the hot processes of a distributed campaign, so they
	// get the same profiling story as campaign|tune. stop runs on every
	// exit path — drain, coordinator loss, and interrupt included.
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	defer stopProf()
	if *id == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	logf := func(string, ...any) {}
	if !*quiet {
		logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "mcmutants: work: "+format+"\n", a...)
		}
	}
	client := &http.Client{Timeout: 30 * time.Second}

	wait := func() error {
		if (clock.System{}).Sleep(ctx, *poll) != nil {
			return &interruptedRun{"work: interrupted"}
		}
		return nil
	}

	// unitFor rebuilds an advertised campaign locally from its
	// descriptor and checks that both sides agree on the cell grid.
	unitFor := func(info dist.WorkInfo) (core.WorkUnit, error) {
		var ws core.WorkSpec
		if err := json.Unmarshal(info.Descriptor, &ws); err != nil {
			return core.WorkUnit{}, fmt.Errorf("bad descriptor: %w", err)
		}
		wo := core.DistWorkOptions{Parallel: *parallel}
		if cache != nil {
			wo.Cache = cache
		}
		u, err := core.DistWork(ws, wo)
		if err != nil {
			return core.WorkUnit{}, err
		}
		if u.Spec.Manifest() != info.Manifest {
			return core.WorkUnit{}, fmt.Errorf("local work unit manifest %.12s does not match %.12s (version skew?)", u.Spec.Manifest(), info.Manifest)
		}
		return u, nil
	}

	seenHub := false
	drainedAny := false
	drained := map[string]bool{} // name+manifest → completed or refused
	for {
		infos, err := dist.ListCampaigns(ctx, *coordinator, client)
		if err != nil {
			if ctx.Err() != nil {
				return &interruptedRun{"work: interrupted"}
			}
			if *once && seenHub {
				// The coordinator went away after we reached it: the
				// campaign process has exited, so the work is over.
				logf("coordinator gone (%v), exiting", err)
				return nil
			}
			logf("coordinator unreachable: %v", err)
			if werr := wait(); werr != nil {
				return werr
			}
			continue
		}
		seenHub = true
		pending := 0
		for _, info := range infos {
			key := info.Name + "/" + info.Manifest
			if info.Done || drained[key] {
				continue
			}
			pending++
			unit, err := unitFor(info)
			if err != nil {
				// A campaign this worker cannot rebuild (skewed version,
				// unknown kind) is refused permanently; others may still
				// be serviceable.
				logf("refusing campaign %s: %v", info.Name, err)
				drained[key] = true
				continue
			}
			logf("joining campaign %s (%d cells, worker %s)", info.Name, info.Cells, *id)
			w := dist.NewWorker(&dist.HTTPTransport{BaseURL: *coordinator, Campaign: info.Name, Client: client},
				unit.Spec, unit.Run, dist.WorkerOptions{ID: *id, Logf: logf})
			if err := w.Run(ctx); err != nil {
				if ctx.Err() != nil {
					return &interruptedRun{"work: interrupted"}
				}
				// The coordinator unregistering mid-RPC (campaign finished
				// without us) looks like an error; re-poll rather than die.
				logf("campaign %s: %v", info.Name, err)
				continue
			}
			logf("campaign %s drained", info.Name)
			drained[key] = true
			drainedAny = true
		}
		if *once && drainedAny && pending == 0 {
			return nil
		}
		if werr := wait(); werr != nil {
			return werr
		}
	}
}
