// Command mcmutants is the MC Mutants workbench: it generates the
// litmus/mutant suite, runs tests in SITE/PTE environments on the
// simulated device fleet, performs tuning studies, and analyzes the
// results — mirroring the paper artifact's workflow (tuning runs plus
// the mutation-score / merge analyses and the Table 4 correlation).
//
// Usage:
//
//	mcmutants suite [-show name] [-explain] [-templates] [-assignment] [-shader name]
//	mcmutants devices
//	mcmutants run -test NAME [-device NAME] [-env pte|site|pte-baseline|site-baseline] [-iters N] [-seed N] [-buggy]
//	mcmutants conformance [-device NAME] [-iters N] [-seed N] [-fence-bug] [-coherence-bug] [-stale-cache-bug]
//	mcmutants campaign -kind conformance|evaluate [-out FILE] [-envs pte,site] [-iters N] [-fence-bug] [-devices A,B] [-seed N] [-parallel N] [-checkpoint FILE] [-resume] [-retries N] [-quiet] [-fsync-every N] [-deadline D] [-cell-timeout D] [-faults] [-fault-rate P] [-watchdog N] [-loss-after N] [-cpuprofile FILE] [-memprofile FILE] [-cache-dir DIR] [-cache-max-mb N] [-workers-addr HOST:PORT] [-lease-ttl D] [-range-cells N] [-stall-timeout D]
//	mcmutants work -coordinator URL [-parallel N] [-id NAME] [-poll D] [-once] [-cpuprofile FILE] [-memprofile FILE] [-cache-dir DIR] [-cache-max-mb N]
//	mcmutants tune [-out FILE] [-envs N] [-site-iters N] [-pte-iters N] [-paper-scale] [-devices A,B] [-seed N] [-parallel N] [-checkpoint FILE] [-resume] [-retries N] [-quiet] [-fsync-every N] [-deadline D] [-cell-timeout D] [-faults] [-fault-rate P] [-watchdog N] [-loss-after N] [-cpuprofile FILE] [-memprofile FILE] [-cache-dir DIR] [-cache-max-mb N]
//	mcmutants correlate [-out FILE] [-envs N] [-iters N] [-seed N] [-parallel N] [-checkpoint FILE] [-resume] [-retries N] [-quiet] [-fsync-every N] [-deadline D] [-cell-timeout D] [-faults] [-fault-rate P] [-watchdog N] [-loss-after N] [-cpuprofile FILE] [-memprofile FILE] [-cache-dir DIR] [-cache-max-mb N]
//	mcmutants analyze -action mutation-score|merge [-stats FILE] [-family NAME] [-rep PCT] [-budget SECONDS]
//	mcmutants cts -stats FILE [-family NAME] [-rep PCT] [-budget SECONDS]
//	mcmutants serve [-addr HOST:PORT] [-state DIR] [-runners N] [-parallel N] [-queue N] [-per-client N] [-fsync-every N] [-cache-dir DIR] [-cache-max-mb N] [-dist] [-dist-lease-ttl D] [-default-wall-deadline D] [-max-wall-deadline D] [-default-cell-timeout D] [-max-cell-timeout D] [-default-stall-timeout D] [-max-stall-timeout D] [-poison-boots N] [-mem-soft-mb N] [-mem-hard-mb N] [-quiet]
//	mcmutants version
//
// Exit status: 0 on success, 1 on usage or fatal errors, 2 when a
// campaign or tuning run completed but degraded — some cells produced
// no data (device failures or quarantined cells), or the checkpoint
// hit a persistent storage failure (ENOSPC/EIO) and the run finished
// in-memory — and 130 when the run was interrupted (SIGINT/SIGTERM or
// -deadline expiry) after a graceful drain — completed cells are
// checkpointed and the run is resumable with -resume.
//
// Final artifacts (datasets, reports, profiles) are published
// atomically: write temp → fsync → rename → fsync dir, so a crash at
// any instant leaves either the previous complete artifact or the new
// one, never a partial file.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/confidence"
	"repro/internal/core"
	"repro/internal/diskio"
	"repro/internal/gpu"
	"repro/internal/guard"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/mutation"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/tuning"
	"repro/internal/wgsl"
	"repro/internal/xrand"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mcmutants:", err)
		os.Exit(exitCode(err))
	}
}

// partialFailure signals a campaign that completed on a degraded fleet:
// usable results were produced and written, but some cells failed or
// were quarantined. It maps to exit code 2 so scripts can distinguish
// "complete", "usable but degraded" and "fatal".
type partialFailure struct{ msg string }

func (e *partialFailure) Error() string { return e.msg }

// ExitCode selects the degraded-completion exit status.
func (e *partialFailure) ExitCode() int { return 2 }

// interruptedRun signals a campaign that was cancelled — SIGINT,
// SIGTERM or -deadline expiry — and drained gracefully: completed cells
// are checkpointed, partial output is written, and a -resume run picks
// up the remainder. It maps to exit code 130, the shell convention for
// an interrupted process, distinct from fatal (1) and degraded (2).
type interruptedRun struct{ msg string }

func (e *interruptedRun) Error() string { return e.msg }

// ExitCode selects the interrupted exit status.
func (e *interruptedRun) ExitCode() int { return 130 }

// exitCode maps an error to the process exit status: errors carrying an
// ExitCode method choose their own (partial failures exit 2); anything
// else — usage mistakes, fatal campaign errors — exits 1.
func exitCode(err error) int {
	var ec interface{ ExitCode() int }
	if errors.As(err, &ec) {
		return ec.ExitCode()
	}
	return 1
}

// run installs the interrupt handler and dispatches the subcommand.
// The first SIGINT/SIGTERM cancels the context — long-running
// subcommands drain gracefully and exit 130 — and a second signal kills
// the process immediately (signal.NotifyContext restores the default
// disposition once the context is cancelled).
func run(args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return dispatch(ctx, args)
}

func dispatch(ctx context.Context, args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "suite":
		return cmdSuite(args[1:])
	case "devices":
		fmt.Print(report.Table3())
		return nil
	case "run":
		return cmdRun(ctx, args[1:])
	case "conformance":
		return cmdConformance(ctx, args[1:])
	case "campaign":
		return cmdCampaign(ctx, args[1:])
	case "work":
		return cmdWork(ctx, args[1:])
	case "tune":
		return cmdTune(ctx, args[1:])
	case "correlate":
		return cmdCorrelate(ctx, args[1:])
	case "analyze":
		return cmdAnalyze(args[1:])
	case "cts":
		return cmdCTS(args[1:])
	case "serve":
		return cmdServe(ctx, args[1:])
	case "optimize":
		return cmdOptimize(ctx, args[1:])
	case "trace":
		return cmdTrace(args[1:])
	case "version":
		fmt.Println(buildinfo.Get())
		return nil
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `mcmutants — MC Mutants for a simulated WebGPU device fleet

subcommands:
  suite        list or inspect the generated 20+32 test suite
  devices      print the device fleet (Table 3)
  run          run one test in one environment on one device
  conformance  run the conformance suite against a platform
  campaign     run a scheduled fleet campaign (conformance or evaluate)
  work         execute leased cell ranges for a remote campaign coordinator
  tune         run a tuning study and save the dataset (JSON)
  correlate    run the Table 4 bug/mutant correlation study
  analyze      mutation-score / merge analyses of a dataset
  cts          curate a conformance-test-suite plan from a dataset
  serve        run the multi-tenant HTTP campaign service
  optimize     search for a per-test specialized environment
  trace        run one instance with event tracing and verification
  version      print the build identity (also in /healthz and /metrics)`)
}

func cmdSuite(args []string) error {
	fs := flag.NewFlagSet("suite", flag.ContinueOnError)
	show := fs.String("show", "", "print one test's program (comma-separated names allowed)")
	explain := fs.Bool("explain", false, "print Fig. 2 candidate executions with hb cycles")
	templates := fs.Bool("templates", false, "print the Fig. 3 mutator templates")
	assignment := fs.Bool("assignment", false, "print a Fig. 4 PTE assignment example")
	shader := fs.String("shader", "", "emit the WGSL shader for a test")
	export := fs.String("export", "", "write every test as a .litmus file into this directory")
	dot := fs.String("dot", "", "emit a Graphviz DOT graph of a test's target execution")
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite, err := mutation.Generate()
	if err != nil {
		return err
	}
	switch {
	case *show != "":
		for _, name := range strings.Split(*show, ",") {
			t, ok := suite.ByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown test %q", name)
			}
			fmt.Println(t)
		}
	case *explain:
		out, err := report.Fig2(suite)
		if err != nil {
			return err
		}
		fmt.Print(out)
	case *templates:
		fmt.Print(report.Fig3())
	case *assignment:
		fmt.Print(report.Fig4(8, 1))
	case *shader != "":
		t, ok := suite.ByName(*shader)
		if !ok {
			return fmt.Errorf("unknown test %q", *shader)
		}
		fmt.Print(wgsl.EmitTestShader(t, wgsl.SourceOptions{Parallel: true, WorkgroupSize: 256}))
	case *dot != "":
		t, ok := suite.ByName(*dot)
		if !ok {
			return fmt.Errorf("unknown test %q", *dot)
		}
		x, err := t.TargetExecution()
		if err != nil {
			return err
		}
		fmt.Print(x.ToDOT(t.Model, t.Name))
	case *export != "":
		if err := os.MkdirAll(*export, 0o755); err != nil {
			return err
		}
		n := 0
		for _, t := range suite.All() {
			name := strings.NewReplacer("/", "_", "+", "p").Replace(t.Name)
			path := filepath.Join(*export, name+".litmus")
			if err := diskio.WriteFileAtomic(diskio.OS{}, path, []byte(litmus.Format(t))); err != nil {
				return err
			}
			n++
		}
		fmt.Printf("wrote %d .litmus files to %s\n", n, *export)
	default:
		fmt.Print(report.Table2(suite))
		fmt.Println()
		fmt.Print(report.SuiteListing(suite))
	}
	return nil
}

func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	testName := fs.String("test", "MP", "test name from the suite")
	testFile := fs.String("file", "", "run a test parsed from a .litmus file instead")
	device := fs.String("device", "AMD", "device short name")
	envName := fs.String("env", "pte", "environment preset")
	iters := fs.Int("iters", 20, "kernel launches")
	seed := fs.Uint64("seed", 1, "random seed")
	wgs := fs.Int("workgroups", 16, "testing workgroups (PTE)")
	wgSize := fs.Int("wgsize", 32, "workgroup size (PTE)")
	fenceBug := fs.Bool("buggy", false, "use the fence-dropping driver")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var test *litmus.Test
	if *testFile != "" {
		f, err := os.Open(*testFile)
		if err != nil {
			return err
		}
		test, err = litmus.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		suite, err := mutation.Generate()
		if err != nil {
			return err
		}
		t, ok := suite.ByName(*testName)
		if !ok {
			return fmt.Errorf("unknown test %q", *testName)
		}
		test = t
	}
	env, err := core.EnvByName(*envName, *wgs, *wgSize)
	if err != nil {
		return err
	}
	p := core.Platform{Device: *device}
	if *fenceBug {
		p.Driver = wgsl.DriverFenceDropping
	}
	runner, err := p.Runner(env)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := runner.RunCtx(ctx, test, *iters, xrand.New(*seed))
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s in %s (%d iterations, %d instances)\n",
		test.Name, runner.Device.Profile().ShortName, *envName, res.Iterations, res.Instances)
	fmt.Printf("target %s: %d observations (%.4g/s simulated)\n",
		test.Target, res.TargetCount, res.TargetRate())
	fmt.Printf("violations: %d (%.4g/s)\n", res.Violations, res.ViolationRate())
	fmt.Printf("simulated %.6fs, wall %.3fs\n", res.SimSeconds, time.Since(start).Seconds())
	fmt.Println("outcomes:")
	fmt.Println(res.Hist)
	return nil
}

func cmdConformance(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("conformance", flag.ContinueOnError)
	device := fs.String("device", "AMD", "device short name")
	iters := fs.Int("iters", 20, "kernel launches per test")
	seed := fs.Uint64("seed", 1, "random seed")
	fenceBug := fs.Bool("fence-bug", false, "inject the AMD Vulkan compiler defect")
	cohBug := fs.Bool("coherence-bug", false, "inject the Intel load-load defect")
	staleBug := fs.Bool("stale-cache-bug", false, "inject the Kepler stale-cache defect")
	if err := fs.Parse(args); err != nil {
		return err
	}
	study, err := core.NewStudy()
	if err != nil {
		return err
	}
	// Each flag injects the defect of its Table 4 case, so the verb and
	// the correlate kind share one definition of each bug.
	p := core.Platform{Device: *device}
	for _, bc := range core.PaperBugCases() {
		switch b := bc.Platform.Bugs; {
		case bc.Name == "AMD/MP-relacq" && *fenceBug:
			p.Driver = bc.Platform.Driver
		case bc.Name == "Intel/CoRR" && *cohBug:
			p.Bugs.CoherenceRR, p.Bugs.CoherenceRRProb, p.Bugs.CoherenceRRPressure = b.CoherenceRR, b.CoherenceRRProb, b.CoherenceRRPressure
		case bc.Name == "NVIDIA/MP-CO" && *staleBug:
			p.Bugs.StaleCache = b.StaleCache
		}
	}
	env, err := core.EnvByName("pte", 16, 32)
	if err != nil {
		return err
	}
	reports, err := study.CheckFleetConformanceCtx(ctx, []core.Platform{p}, env, *iters, *seed, core.CampaignOptions{})
	if err != nil {
		return err
	}
	rep := reports[0]
	fmt.Printf("conformance run on %s (driver: %v)\n\n", *device, p.Driver)
	for _, f := range rep.Findings {
		status := "ok"
		if f.Violations > 0 {
			status = fmt.Sprintf("VIOLATED %d/%d (%.4g/s)", f.Violations, f.Instances, f.ViolationRate)
		}
		fmt.Printf("  %-22s %s\n", f.Test, status)
		if f.Violations > 0 {
			fmt.Printf("    outcome: %s\n    cycle:   %s\n", f.Outcome, f.Explanation)
		}
	}
	if buggy := rep.Buggy(); len(buggy) > 0 {
		fmt.Printf("\n%d conformance test(s) FAILED — the platform violates its MCS\n", len(buggy))
	} else {
		fmt.Println("\nall conformance tests passed")
	}
	return nil
}

// runFlags is the flag set the campaign, tune and correlate verbs
// share: output, fleet, seed, scheduling, checkpointing and
// durability, fault injection, cancellation budgets, profiling and the
// result cache. run turns it and a kind's WorkSpec into one
// core.RunWorkSpec call.
type runFlags struct {
	out, devices, checkpoint *string
	seed                     *uint64
	parallel, retries        *int
	resume, quiet            *bool

	faults    *bool
	faultRate *float64
	watchdog  *int64
	lossAfter *int

	deadline, cellTimeout *time.Duration

	fsyncEvery *int
	prof       *profileFlags
	cache      *cacheFlags
}

// addRunFlags registers the shared flags on fs with the verb's default
// seed, output path and worker count. fleet registers -devices, for
// the kinds whose spec takes a device list.
func addRunFlags(fs *flag.FlagSet, seed uint64, out string, parallel int, fleet bool) *runFlags {
	rf := &runFlags{
		out:        fs.String("out", out, "write the artifact (JSON report or dataset) to this path (atomic)"),
		seed:       fs.Uint64("seed", seed, "campaign seed"),
		parallel:   fs.Int("parallel", parallel, "scheduler workers (any count yields identical results)"),
		checkpoint: fs.String("checkpoint", "", "checkpoint path for resumable runs (default <out>.ckpt when -resume is set)"),
		resume:     fs.Bool("resume", false, "resume from the checkpoint, replaying completed cells"),
		retries:    fs.Int("retries", 0, "retries per cell on transient failures"),
		quiet:      fs.Bool("quiet", false, "suppress progress output"),

		faults:    fs.Bool("faults", false, "inject deterministic device-stack faults and enable the circuit breaker"),
		faultRate: fs.Float64("fault-rate", 0.05, "per-launch probability of each injected fault kind (with -faults)"),
		watchdog:  fs.Int64("watchdog", 0, "kernel watchdog deadline in simulated ticks (0: default bound)"),
		lossAfter: fs.Int("loss-after", 0, "permanently lose a device after N injected faults (0: never; with -faults)"),

		deadline: fs.Duration("deadline", 0,
			"wall-clock budget for the whole run; expiry drains gracefully (checkpoint flushed, exit 130, resumable)"),
		cellTimeout: fs.Duration("cell-timeout", 0,
			"bound on each cell attempt; expiry fails that cell only, the run continues"),

		fsyncEvery: addFsyncFlag(fs),
		prof:       addProfileFlags(fs),
		cache:      addCacheFlags(fs),
	}
	if fleet {
		rf.devices = fs.String("devices", "", "comma-separated device names (default: the Table 3 fleet)")
	}
	return rf
}

// workSpec completes ws with the shared flags: devices (when
// registered), seed, retry policy and fault model. Without -faults the
// model is the zero model plus any explicit watchdog; with it, the
// fault stream is seeded from the campaign seed.
func (rf *runFlags) workSpec(ws core.WorkSpec) core.WorkSpec {
	if rf.devices != nil {
		ws.Devices = splitList(*rf.devices)
	}
	ws.Seed = *rf.seed
	ws.Retries = *rf.retries
	ws.CellTimeoutMS = core.DurationMS(*rf.cellTimeout)
	var fm gpu.FaultModel
	if *rf.faults {
		fm = gpu.UniformFaults(ws.Seed, *rf.faultRate)
		fm.LossAfter = *rf.lossAfter
	}
	fm.WatchdogTicks = *rf.watchdog
	if fm != (gpu.FaultModel{}) {
		ws.Faults = &fm
	}
	return ws
}

// splitList splits a comma-separated flag value into trimmed names;
// an empty value is an empty list.
func splitList(list string) []string {
	if list == "" {
		return nil
	}
	names := strings.Split(list, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
	}
	return names
}

// validate rejects everything a flag can get wrong — kind, devices,
// environments, sizes, retry policy, fault parameters, budgets — so it
// fails with exit 1 before any campaign work.
func (rf *runFlags) validate(ws core.WorkSpec) error {
	if err := ws.Validate(); err != nil {
		return err
	}
	if *rf.faultRate < 0 || *rf.faultRate > 1 {
		return fmt.Errorf("-fault-rate %v out of range [0, 1]", *rf.faultRate)
	}
	if *rf.lossAfter < 0 {
		return fmt.Errorf("-loss-after must be non-negative")
	}
	if *rf.deadline < 0 {
		return fmt.Errorf("-deadline must be non-negative")
	}
	return nil
}

// run executes the campaign ws describes and renders it: validate →
// probe output paths → open the cache → arm -deadline → start
// profiling → core.RunWorkSpec → print → write -out → verdict. df,
// when non-nil, may turn the run into a distributed coordinator.
func (rf *runFlags) run(ctx context.Context, ws core.WorkSpec, df *distFlags) error {
	ws = rf.workSpec(ws)
	if err := rf.validate(ws); err != nil {
		return err
	}
	if df != nil {
		if err := df.validate(); err != nil {
			return err
		}
	}
	out, checkpoint := *rf.out, *rf.checkpoint
	if *rf.resume && checkpoint == "" && out != "" {
		checkpoint = out + ".ckpt"
	}
	if err := probeOutputPaths(out, *rf.prof.cpu, *rf.prof.mem); err != nil {
		return err
	}
	cache, err := rf.cache.open()
	if err != nil {
		return err
	}
	defer cacheSummary(os.Stderr, cache)
	if *rf.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *rf.deadline)
		defer cancel()
	}
	stopProf, err := rf.prof.start()
	if err != nil {
		return err
	}
	defer stopProf()
	study, err := core.NewStudy()
	if err != nil {
		return err
	}
	opts := core.CampaignOptions{
		Workers:        *rf.parallel,
		CheckpointPath: checkpoint,
		Resume:         *rf.resume,
		FsyncEvery:     *rf.fsyncEvery,
	}
	if *rf.faults {
		// The breaker quarantines a failing device and implies collect.
		opts.Breaker = &sched.BreakerOptions{}
	}
	if cache != nil {
		opts.Cache = cache
	}
	if !*rf.quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
		opts.OnProgress = printProgress
		opts.ProgressEvery = progressEvery
	}
	// With -workers-addr the campaign coordinates `mcmutants work`
	// processes over HTTP instead of executing cells itself; the merged
	// report is byte-identical to a local run at any worker count.
	if df != nil && *df.addr != "" {
		hub, stopHub, err := df.serveHub()
		if err != nil {
			return err
		}
		defer stopHub()
		var logf func(string, ...any)
		if !*rf.quiet {
			logf = func(format string, a ...any) {
				fmt.Fprintf(os.Stderr, "mcmutants: dist: "+format+"\n", a...)
			}
		}
		opts.Dist = df.options(hub, logf)
	}
	res, err := study.RunWorkSpec(ctx, ws, opts)
	if err != nil {
		return err
	}
	switch ws.Kind {
	case "conformance":
		printConformance(res)
	case "evaluate":
		printEvaluate(res, len(ws.Envs))
	case "tune":
		printTune(res)
	case "correlate":
		// An interrupted study's rows cover only the environments that
		// finished, so its Table 4 waits for the resumed run.
		if !res.Interrupted {
			fmt.Print(report.Table4(res.Artifact.Correlation))
		}
	}
	if res.StorageErr != "" {
		fmt.Fprintf(os.Stderr, "mcmutants: checkpoint storage degraded, finished in-memory: %s\n", res.StorageErr)
	}
	if out != "" {
		if err := diskio.WriteAtomic(diskio.OS{}, out, res.Encode); err != nil {
			return err
		}
		what := "report"
		if res.Dataset != nil {
			what = fmt.Sprintf("%d records", len(res.Dataset.Records))
		}
		fmt.Printf("wrote %s to %s\n", what, out)
	}
	if res.Interrupted {
		msg := fmt.Sprintf("%s interrupted: %d cell(s) pending", ws.Kind, res.Pending)
		if checkpoint != "" {
			msg += fmt.Sprintf("; resume with -checkpoint %s -resume", checkpoint)
		}
		return &interruptedRun{msg}
	}
	return campaignVerdict(res)
}

// addFsyncFlag registers -fsync-every, the checkpoint-durability flag
// of the campaign, tune and serve subcommands.
func addFsyncFlag(fs *flag.FlagSet) *int {
	return fs.Int("fsync-every", 0,
		"fsync the checkpoint after every N recorded cells (0: default bounded-loss policy; negative: only at drain and close)")
}

// profileFlags is the shared -cpuprofile/-memprofile flag group of the
// long-running campaign and tune subcommands.
type profileFlags struct {
	cpu *string
	mem *string
}

// addProfileFlags registers the pprof profiling flags on fs.
func addProfileFlags(fs *flag.FlagSet) *profileFlags {
	return &profileFlags{
		cpu: fs.String("cpuprofile", "", "write a pprof CPU profile to this file"),
		mem: fs.String("memprofile", "", "write a pprof heap profile to this file on exit"),
	}
}

// start begins CPU profiling when requested and returns a stop function
// to defer. stop finishes the CPU profile and writes the heap profile;
// it runs on every exit path, so profiles are captured even when a run
// completes degraded (partial-failure exit). Both profiles are
// published atomically — the CPU profile streams into a temp file that
// is fsynced and renamed into place only once complete, and the heap
// profile goes through diskio.WriteAtomic — so a crash mid-write never
// leaves a truncated profile at the requested path.
func (pf *profileFlags) start() (stop func(), err error) {
	fsys := diskio.OS{}
	var cpuFile diskio.File
	cpuPath, memPath := *pf.cpu, *pf.mem
	if cpuPath != "" {
		cpuFile, err = diskio.Create(fsys, cpuPath+".tmp")
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			fsys.Remove(cpuPath + ".tmp")
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			err := cpuFile.Sync()
			if cerr := cpuFile.Close(); err == nil {
				err = cerr
			}
			if err == nil {
				err = fsys.Rename(cpuPath+".tmp", cpuPath)
			}
			if err == nil {
				err = fsys.SyncDir(filepath.Dir(cpuPath))
			}
			if err != nil {
				fsys.Remove(cpuPath + ".tmp")
				fmt.Fprintf(os.Stderr, "mcmutants: cpuprofile: %v\n", err)
			}
		}
		if memPath == "" {
			return
		}
		runtime.GC() // settle the heap so the profile reflects live objects
		if err := diskio.WriteAtomic(fsys, memPath, pprof.WriteHeapProfile); err != nil {
			fmt.Fprintf(os.Stderr, "mcmutants: memprofile: %v\n", err)
		}
	}, nil
}

// probeOutputPaths verifies each requested output destination (report,
// dataset, profile) is writable before any long-running work begins: a
// path that cannot be created must fail the run up front with exit 1,
// not hours later when the artifact is finally published. The probe
// creates and removes a temp sibling, the same directory the atomic
// writers will use, without touching any existing artifact at the path.
func probeOutputPaths(paths ...string) error {
	fsys := diskio.OS{}
	for _, path := range paths {
		if path == "" {
			continue
		}
		f, err := diskio.Create(fsys, path+".probe")
		if err != nil {
			return fmt.Errorf("output path not writable: %w", err)
		}
		f.Close()
		if err := fsys.Remove(path + ".probe"); err != nil {
			return err
		}
	}
	return nil
}

// campaignVerdict maps a completed campaign's degradations to its exit
// state: nil when fully healthy, partialFailure (exit 2) when cells
// produced no data or the checkpoint degraded to in-memory on a
// persistent storage failure.
func campaignVerdict(res *core.WorkResult) error {
	var parts []string
	if res.Failed > 0 {
		parts = append(parts, fmt.Sprintf("%d cell(s) produced no data (%d quarantined)", res.Failed, res.Quarantined))
	}
	if res.StorageErr != "" {
		parts = append(parts, fmt.Sprintf("checkpoint storage degraded (%s), results not durably checkpointed", res.StorageErr))
	}
	if len(parts) == 0 {
		return nil
	}
	return &partialFailure{"campaign degraded: " + strings.Join(parts, "; ")}
}

// progressEvery is the cadence of the stderr throughput line.
const progressEvery = 2 * time.Second

// printProgress writes one campaign snapshot to stderr as its
// throughput line.
func printProgress(p sched.Progress) { fmt.Fprintln(os.Stderr, p) }

func cmdCampaign(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	def := core.KindDefaults("conformance")
	kind := fs.String("kind", def.Kind, "campaign kind: conformance or evaluate")
	envNames := fs.String("envs", strings.Join(def.Envs, ","), "comma-separated environment presets")
	iters := fs.Int("iters", def.Iters, "kernel launches per cell")
	fenceBug := fs.Bool("fence-bug", false, "inject the fence-dropping driver on every platform")
	rf := addRunFlags(fs, def.Seed, "", 4, true)
	df := addDistFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The campaign flags and their defaults describe conformance and
	// evaluate campaigns; tuning and correlation studies have their own
	// verbs and sizes.
	if *kind == "tune" || *kind == "correlate" {
		return fmt.Errorf("campaign runs conformance and evaluate campaigns; run tuning studies with 'mcmutants tune' and the Table 4 study with 'mcmutants correlate'")
	}
	return rf.run(ctx, core.WorkSpec{Kind: *kind, Envs: splitList(*envNames), Iters: *iters, FenceBug: *fenceBug}, df)
}

// printConformance renders a conformance artifact's per-platform
// findings and the fleet verdict to stdout. "fleet conforms" is said
// only when every cell produced data.
func printConformance(res *core.WorkResult) {
	reports := res.Artifact.Conformance
	if len(reports) == 0 {
		return
	}
	bad, cells := 0, 0
	for _, rep := range reports {
		buggy := rep.Buggy()
		bad += len(buggy)
		cells += len(rep.Findings)
		fmt.Printf("%-8s %d/%d conformance tests violated\n",
			rep.Platform.Device, len(buggy), len(rep.Findings))
		for _, f := range buggy {
			fmt.Printf("  %-22s %d/%d (%.4g/s)\n    outcome: %s\n    cycle:   %s\n",
				f.Test, f.Violations, f.Instances, f.ViolationRate, f.Outcome, f.Explanation)
		}
		for _, f := range rep.Failed() {
			fmt.Printf("  %-22s NO DATA: %s\n", f.Test, f.Error)
		}
		for _, h := range rep.Health {
			if h.Quarantined > 0 || h.Open {
				state := "recovered"
				if h.Open {
					state = "still open"
				}
				fmt.Printf("  breaker: %d/%d cells quarantined (%s)\n", h.Quarantined, h.Cells, state)
			}
		}
	}
	so := ""
	if res.Interrupted {
		so = " so far (run interrupted)"
	}
	switch {
	case bad > 0:
		fmt.Printf("\n%d violation(s) across the fleet\n", bad)
	case res.Failed > 0:
		fmt.Printf("\nno violations%s: %d cell(s) ran clean, %d produced no data\n",
			so, cells-res.Failed-res.Pending, res.Failed)
	default:
		fmt.Printf("\nfleet conforms%s\n", so)
	}
}

// printEvaluate renders an evaluate artifact's per-device mutation
// scores to stdout.
func printEvaluate(res *core.WorkResult, envs int) {
	for _, e := range res.Artifact.Evaluate {
		score := e.Score
		note := ""
		if score.Interrupted {
			note = " [interrupted, partial]"
		}
		fmt.Printf("%-8s mutation score %.1f%% (%d/%d killed across %d environments), avg death rate %.4g/s%s\n",
			e.Device, 100*score.Score(), score.Killed, score.Total, envs, score.AvgDeathRate, note)
		if len(score.Failures) > 0 {
			nq := 0
			for _, f := range score.Failures {
				if f.Quarantined {
					nq++
				}
			}
			fmt.Printf("  %d cell(s) produced no data (%d quarantined)\n", len(score.Failures), nq)
		}
	}
}

func cmdTune(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("tune", flag.ContinueOnError)
	def := core.KindDefaults("tune")
	envs := fs.Int("envs", def.TuneEnvs, "random environments per tuned family")
	siteIters := fs.Int("site-iters", def.SiteIters, "SITE iterations per test")
	pteIters := fs.Int("pte-iters", def.PTEIters, "PTE iterations per test")
	paperScale := fs.Bool("paper-scale", false, "use the paper's full environment sizes (slow)")
	rf := addRunFlags(fs, def.Seed, "tuning.json", 1, true)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return rf.run(ctx, core.WorkSpec{Kind: def.Kind, TuneEnvs: *envs, SiteIters: *siteIters,
		PTEIters: *pteIters, PaperScale: *paperScale}, nil)
}

// cmdCorrelate runs the Table 4 study: the paper's bug cases, each
// correlating its conformance test's bug rate with its mutant's death
// rate over random environments. Results do not depend on the worker
// count, so it runs on every CPU by default.
func cmdCorrelate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("correlate", flag.ContinueOnError)
	def := core.KindDefaults("correlate")
	envs := fs.Int("envs", def.TuneEnvs, "random environments per bug case")
	iters := fs.Int("iters", def.Iters, "kernel launches per cell")
	rf := addRunFlags(fs, def.Seed, "", runtime.GOMAXPROCS(0), false)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return rf.run(ctx, core.WorkSpec{Kind: def.Kind, TuneEnvs: *envs, Iters: *iters}, nil)
}

// printTune renders a tuning dataset's dropped cells and its Fig. 5
// summary to stdout. An interrupted dataset is partial, so its Fig. 5
// is skipped: it would summarize an incomplete grid.
func printTune(res *core.WorkResult) {
	if res.Failed > 0 {
		fmt.Printf("%d cell(s) dropped (%d quarantined) — recorded in the dataset's dropped list\n",
			res.Failed, res.Quarantined)
	}
	if res.Interrupted {
		fmt.Println("run interrupted: dataset partial")
		return
	}
	fmt.Println()
	fmt.Print(report.Fig5(res.Dataset))
}

// cmdServe runs the campaign service: an HTTP server that accepts
// campaign and tuning specs as JSON jobs, executes them on a runner
// pool with durable checkpoints under -state, streams progress over
// SSE and exposes Prometheus metrics. SIGINT/SIGTERM drains
// gracefully — running jobs stop at the next cell boundary and are
// re-queued durably for the next boot — and exits 130, matching the
// campaign and tune verbs.
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8344", "listen address (port 0 picks a free port, printed on stdout)")
	state := fs.String("state", "mcmutants-state", "state directory for job records, checkpoints and reports")
	runners := fs.Int("runners", 2, "jobs executing concurrently")
	parallel := fs.Int("parallel", 4, "scheduler workers per job (any count yields identical artifacts)")
	queueDepth := fs.Int("queue", 64, "bound on queued jobs; submissions beyond it get 429")
	perClient := fs.Int("per-client", 4, "per-client in-flight job cap (X-API-Key or remote address)")
	quiet := fs.Bool("quiet", false, "suppress server log lines")
	enableDist := fs.Bool("dist", false, "accept distributed jobs and serve the /dist/v1/ coordination API to mcmutants work processes")
	distLeaseTTL := fs.Duration("dist-lease-ttl", 10*time.Second, "worker lease deadline for distributed jobs (with -dist)")
	defWall := fs.Duration("default-wall-deadline", 0, "wall-clock budget applied to jobs that request none (0 = unbounded)")
	maxWall := fs.Duration("max-wall-deadline", 0, "cap on a job's requested wall_deadline (0 = uncapped)")
	defCell := fs.Duration("default-cell-timeout", 0, "per-cell-attempt timeout applied to jobs that request none (0 = unbounded)")
	maxCell := fs.Duration("max-cell-timeout", 0, "cap on a job's requested cell_timeout (0 = uncapped)")
	defStall := fs.Duration("default-stall-timeout", 0, "progress-stall budget applied to jobs that request none (0 = no stall watchdog)")
	maxStall := fs.Duration("max-stall-timeout", 0, "cap on a job's requested stall_timeout (0 = uncapped)")
	poisonBoots := fs.Int("poison-boots", 3, "boots that may find a job running before it is quarantined as poisoned (-1 disables)")
	memSoftMB := fs.Int64("mem-soft-mb", 0, "soft heap watermark in MiB: pause queue drain and shed submissions with 429 (0 disables)")
	memHardMB := fs.Int64("mem-hard-mb", 0, "hard heap watermark in MiB: additionally shed the newest running jobs (0 disables)")
	fsyncEvery := addFsyncFlag(fs)
	chf := addCacheFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *distLeaseTTL <= 0 {
		return fmt.Errorf("-dist-lease-ttl must be positive")
	}
	if *chf.maxMB < 0 {
		return fmt.Errorf("-cache-max-mb must be >= 0")
	}
	for name, d := range map[string]time.Duration{
		"-default-wall-deadline": *defWall, "-max-wall-deadline": *maxWall,
		"-default-cell-timeout": *defCell, "-max-cell-timeout": *maxCell,
		"-default-stall-timeout": *defStall, "-max-stall-timeout": *maxStall,
	} {
		if d < 0 {
			return fmt.Errorf("%s must be >= 0", name)
		}
	}
	if *memSoftMB < 0 || *memHardMB < 0 {
		return fmt.Errorf("-mem-soft-mb and -mem-hard-mb must be >= 0")
	}
	if *poisonBoots == 0 {
		return fmt.Errorf("-poison-boots must be positive (or -1 to disable quarantine)")
	}
	cfg := serve.Config{
		StateDir:      *state,
		Runners:       *runners,
		JobWorkers:    *parallel,
		QueueDepth:    *queueDepth,
		PerClient:     *perClient,
		FsyncEvery:    *fsyncEvery,
		EnableDist:    *enableDist,
		DistLeaseTTL:  *distLeaseTTL,
		CacheDir:      *chf.dir,
		CacheMaxBytes: *chf.maxMB << 20,
		Budgets: guard.Limits{
			DefaultWallDeadline: *defWall,
			MaxWallDeadline:     *maxWall,
			DefaultCellTimeout:  *defCell,
			MaxCellTimeout:      *maxCell,
			DefaultStallTimeout: *defStall,
			MaxStallTimeout:     *maxStall,
		},
		PoisonBoots:  *poisonBoots,
		MemSoftBytes: uint64(*memSoftMB) << 20,
		MemHardBytes: uint64(*memHardMB) << 20,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "mcmutants: "+format+"\n", args...)
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The bound address goes to stdout so scripts using port 0 can
	// learn the port (everything else the server prints is stderr).
	fmt.Printf("serving on http://%s (state %s)\n", ln.Addr(), *state)
	if err := srv.Run(ctx, ln); err != nil {
		return err
	}
	if ctx.Err() != nil {
		return &interruptedRun{"serve: drained and shut down"}
	}
	return nil
}

func loadDataset(path string) (*tuning.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tuning.Load(f)
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	action := fs.String("action", "mutation-score", "mutation-score or merge")
	statsPath := fs.String("stats", "tuning.json", "dataset path (mutation-score, merge)")
	family := fs.String("family", "PTE", "environment family")
	rep := fs.Float64("rep", 95, "reproducibility target in percent")
	budget := fs.Float64("budget", 1, "per-test time budget in seconds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *action {
	case "mutation-score":
		ds, err := loadDataset(*statsPath)
		if err != nil {
			return err
		}
		fmt.Print(report.Fig5(ds))
		return nil
	case "merge":
		ds, err := loadDataset(*statsPath)
		if err != nil {
			return err
		}
		target := *rep / 100
		tables := ds.RateTables(*family)
		points, err := confidence.BudgetSweep(tables, ds.Devices(),
			[]float64{target}, []float64{*budget})
		if err != nil {
			return err
		}
		fmt.Print(report.Fig6(points))
		return nil
	case "merge-sweep":
		ds, err := loadDataset(*statsPath)
		if err != nil {
			return err
		}
		tables := ds.RateTables(*family)
		points, err := confidence.BudgetSweep(tables, ds.Devices(),
			[]float64{0.95, 0.99999}, confidence.PowersOfTwoBudgets(-10, 6))
		if err != nil {
			return err
		}
		fmt.Print(report.Fig6(points))
		return nil
	default:
		return fmt.Errorf("unknown action %q", *action)
	}
}

func cmdCTS(args []string) error {
	fs := flag.NewFlagSet("cts", flag.ContinueOnError)
	statsPath := fs.String("stats", "tuning.json", "dataset path")
	family := fs.String("family", "PTE", "environment family")
	rep := fs.Float64("rep", 99.999, "reproducibility target in percent")
	budget := fs.Float64("budget", 1, "per-test time budget in seconds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := loadDataset(*statsPath)
	if err != nil {
		return err
	}
	plan, err := core.CurateCTS(ds, *family, *rep/100, *budget)
	if err != nil {
		return err
	}
	fmt.Printf("CTS plan: family=%s target=%.5g%% budget=%.4gs/test\n\n",
		plan.Family, 100*plan.Target, plan.Budget)
	for _, e := range plan.Entries {
		mark := " "
		if e.Reproducible {
			mark = "*"
		}
		fmt.Printf("  %s %-22s env=%-12s devices=%d/%d min-rate=%.4g/s\n",
			mark, e.Test, e.Env, e.DevicesMeeting, e.TotalDevices, e.MinPositiveRate)
	}
	fmt.Printf("\nmutation score: %.1f%%\n", 100*plan.MutationScore)
	fmt.Printf("total reproducibility: %.4f%%\n", 100*plan.TotalReproducibility)
	fmt.Printf("total budget: %.4gs\n", plan.TotalBudgetSeconds)
	return nil
}

func cmdOptimize(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	testName := fs.String("test", "MP", "test name from the suite")
	device := fs.String("device", "AMD", "device short name")
	explore := fs.Int("explore", 16, "random exploration rounds")
	refine := fs.Int("refine", 16, "hill-climbing rounds")
	iters := fs.Int("iters", 4, "kernel launches per candidate")
	site := fs.Bool("site", false, "search single-instance environments instead of PTE")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite, err := mutation.Generate()
	if err != nil {
		return err
	}
	test, ok := suite.ByName(*testName)
	if !ok {
		return fmt.Errorf("unknown test %q", *testName)
	}
	cfg := tuning.DefaultOptimizeConfig()
	cfg.ExploreRounds = *explore
	cfg.RefineRounds = *refine
	cfg.Iterations = *iters
	cfg.Parallel = !*site
	cfg.Seed = *seed
	best, err := tuning.Optimize(ctx, test, *device, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("optimized environment for %s on %s (%d candidates):\n", *testName, *device, best.Evaluated)
	fmt.Printf("  rate: %.4g kills/s (%d kills during evaluation)\n", best.Rate, best.Kills)
	fmt.Printf("  env: %+v\n", best.Env)
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	testName := fs.String("test", "MP", "test name from the suite")
	device := fs.String("device", "AMD", "device short name")
	seed := fs.Uint64("seed", 1, "random seed")
	limit := fs.Int("limit", 40, "maximum events to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite, err := mutation.Generate()
	if err != nil {
		return err
	}
	test, ok := suite.ByName(*testName)
	if !ok {
		return fmt.Errorf("unknown test %q", *testName)
	}
	prof, ok := gpu.ProfileByName(*device)
	if !ok {
		return fmt.Errorf("unknown device %q", *device)
	}
	dev, err := gpu.NewDevice(prof, gpu.Bugs{})
	if err != nil {
		return err
	}
	// A single bare instance: one thread per role, no stress, so the
	// trace stays readable.
	roles := len(test.Threads)
	env := harness.SITEBaseline()
	env.MaxWorkgroups = roles
	spec, err := harness.BuildKernel(test, &env, xrand.New(*seed))
	if err != nil {
		return err
	}
	res, trace, err := dev.RunTraced(*spec, xrand.New(*seed))
	if err != nil {
		return err
	}
	fmt.Printf("traced %s on %s: %d events over %d ticks\n\n",
		test.Name, prof.ShortName, len(trace), res.Stats.Ticks)
	for i, e := range trace {
		if i == *limit {
			fmt.Printf("... %d more events\n", len(trace)-*limit)
			break
		}
		fmt.Println(" ", e)
	}
	if err := gpu.VerifyTrace(*spec, trace); err != nil {
		fmt.Printf("\ntrace verification FAILED: %v\n", err)
	} else {
		fmt.Println("\ntrace verification passed")
	}
	return nil
}
