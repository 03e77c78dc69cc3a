// Command mcmutants is the MC Mutants workbench: it generates the
// litmus/mutant suite, runs tests in SITE/PTE environments on the
// simulated device fleet, performs tuning studies, and analyzes the
// results — mirroring the paper artifact's workflow (tuning runs plus
// the mutation-score / merge / correlation analyses).
//
// Usage:
//
//	mcmutants suite [-show name] [-explain] [-templates] [-assignment] [-shader name]
//	mcmutants devices
//	mcmutants run -test NAME [-device NAME] [-env pte|site|pte-baseline|site-baseline] [-iters N] [-seed N] [-buggy]
//	mcmutants conformance [-device NAME] [-iters N] [-seed N] [-fence-bug] [-coherence-bug] [-stale-cache-bug]
//	mcmutants campaign -kind conformance|evaluate [-out FILE] [-devices A,B] [-envs pte,site] [-iters N] [-seed N] [-parallel N] [-checkpoint FILE] [-resume] [-fsync-every N] [-deadline D] [-cell-timeout D] [-faults] [-fault-rate P] [-watchdog N] [-loss-after N] [-workers-addr HOST:PORT] [-lease-ttl D] [-range-cells N] [-stall-timeout D]
//	mcmutants work -coordinator URL [-parallel N] [-id NAME] [-poll D] [-once] [-cpuprofile FILE] [-memprofile FILE]
//	mcmutants tune [-out FILE] [-envs N] [-site-iters N] [-pte-iters N] [-paper-scale] [-devices A,B] [-seed N] [-parallel N] [-checkpoint FILE] [-resume] [-fsync-every N] [-deadline D] [-cell-timeout D] [-faults] [-fault-rate P] [-watchdog N] [-loss-after N]
//	mcmutants analyze -action mutation-score|merge|correlation [-stats FILE] [-family NAME] [-rep PCT] [-budget SECONDS] [-envs N] [-iters N]
//	mcmutants cts -stats FILE [-family NAME] [-rep PCT] [-budget SECONDS]
//	mcmutants serve [-addr HOST:PORT] [-state DIR] [-runners N] [-parallel N] [-queue N] [-per-client N] [-fsync-every N] [-dist] [-dist-lease-ttl D] [-default-wall-deadline D] [-max-wall-deadline D] [-default-cell-timeout D] [-max-cell-timeout D] [-default-stall-timeout D] [-max-stall-timeout D] [-poison-boots N] [-mem-soft-mb N] [-mem-hard-mb N] [-quiet]
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
	"repro/internal/dist"
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
		return cmdRun(args[1:])
	case "conformance":
		return cmdConformance(args[1:])
	case "campaign":
		return cmdCampaign(ctx, args[1:])
	case "work":
		return cmdWork(ctx, args[1:])
	case "tune":
		return cmdTune(ctx, args[1:])
	case "analyze":
		return cmdAnalyze(args[1:])
	case "cts":
		return cmdCTS(args[1:])
	case "serve":
		return cmdServe(ctx, args[1:])
	case "optimize":
		return cmdOptimize(args[1:])
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
  analyze      mutation-score / merge / correlation analyses
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

// envByName resolves an environment preset (see core.EnvByName).
func envByName(name string, wgs, wgSize int) (harness.Params, error) {
	return core.EnvByName(name, wgs, wgSize)
}

func cmdRun(args []string) error {
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
	prof, ok := gpu.ProfileByName(*device)
	if !ok {
		return fmt.Errorf("unknown device %q", *device)
	}
	env, err := envByName(*envName, *wgs, *wgSize)
	if err != nil {
		return err
	}
	dev, err := gpu.NewDevice(prof, gpu.Bugs{})
	if err != nil {
		return err
	}
	runner, err := harness.NewRunner(dev, env)
	if err != nil {
		return err
	}
	driver := wgsl.DriverConformant
	if *fenceBug {
		driver = wgsl.DriverFenceDropping
	}
	runner.Lower = wgsl.NewToolchain(prof, driver).LowerFunc()
	res, err := runner.Run(test, *iters, xrand.New(*seed))
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s in %s (%d iterations, %d instances)\n",
		test.Name, prof.ShortName, *envName, res.Iterations, res.Instances)
	fmt.Printf("target %s: %d observations (%.4g/s simulated)\n",
		test.Target, res.TargetCount, res.TargetRate())
	fmt.Printf("violations: %d (%.4g/s)\n", res.Violations, res.ViolationRate())
	fmt.Printf("simulated %.6fs, wall %.3fs\n", res.SimSeconds, res.WallSeconds)
	fmt.Println("outcomes:")
	fmt.Println(res.Hist)
	return nil
}

func cmdConformance(args []string) error {
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
	p := core.Platform{Device: *device}
	if *fenceBug {
		p.Driver = wgsl.DriverFenceDropping
	}
	if *cohBug {
		p.Bugs.CoherenceRR = true
		p.Bugs.CoherenceRRProb = 0.4
		p.Bugs.CoherenceRRPressure = 2
	}
	if *staleBug {
		p.Bugs.StaleCache = true
	}
	env, err := envByName("pte", 16, 32)
	if err != nil {
		return err
	}
	rep, err := study.CheckConformance(p, env, *iters, *seed)
	if err != nil {
		return err
	}
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

// faultFlags is the shared -faults/-fault-rate/-watchdog/-loss-after
// flag group of the campaign and tune subcommands.
type faultFlags struct {
	enable    *bool
	rate      *float64
	watchdog  *int64
	lossAfter *int
}

// addFaultFlags registers the fault-injection flags on fs.
func addFaultFlags(fs *flag.FlagSet) *faultFlags {
	return &faultFlags{
		enable:    fs.Bool("faults", false, "inject deterministic device-stack faults and enable the circuit breaker"),
		rate:      fs.Float64("fault-rate", 0.05, "per-launch probability of each injected fault kind (with -faults)"),
		watchdog:  fs.Int64("watchdog", 0, "kernel watchdog deadline in simulated ticks (0: default bound)"),
		lossAfter: fs.Int("loss-after", 0, "permanently lose a device after N injected faults (0: never; with -faults)"),
	}
}

// validate rejects nonsensical fault parameters at flag-check time.
func (ff *faultFlags) validate() error {
	if *ff.rate < 0 || *ff.rate > 1 {
		return fmt.Errorf("-fault-rate %v out of range [0, 1]", *ff.rate)
	}
	if *ff.lossAfter < 0 {
		return fmt.Errorf("-loss-after must be non-negative")
	}
	return nil
}

// model builds the fault model the flags select, seeding the fault
// stream from the campaign seed. Without -faults it is the zero model
// (plus any explicit watchdog), which injects nothing.
func (ff *faultFlags) model(seed uint64) gpu.FaultModel {
	var fm gpu.FaultModel
	if *ff.enable {
		fm = gpu.UniformFaults(seed, *ff.rate)
		fm.LossAfter = *ff.lossAfter
	}
	fm.WatchdogTicks = *ff.watchdog
	return fm
}

// breaker returns circuit-breaker options: enabled with defaults
// exactly when fault injection is on.
func (ff *faultFlags) breaker() *sched.BreakerOptions {
	if !*ff.enable {
		return nil
	}
	return &sched.BreakerOptions{}
}

// cancelFlags is the shared -deadline/-cell-timeout flag group of the
// campaign and tune subcommands.
type cancelFlags struct {
	deadline    *time.Duration
	cellTimeout *time.Duration
}

// addCancelFlags registers the cancellation-budget flags on fs.
func addCancelFlags(fs *flag.FlagSet) *cancelFlags {
	return &cancelFlags{
		deadline: fs.Duration("deadline", 0,
			"wall-clock budget for the whole run; expiry drains gracefully (checkpoint flushed, exit 130, resumable)"),
		cellTimeout: fs.Duration("cell-timeout", 0,
			"bound on each cell attempt; expiry fails that cell only, the run continues"),
	}
}

// apply derives the run context from -deadline; the returned cancel
// must be deferred.
func (cf *cancelFlags) apply(ctx context.Context) (context.Context, context.CancelFunc) {
	if *cf.deadline > 0 {
		return context.WithTimeout(ctx, *cf.deadline)
	}
	return context.WithCancel(ctx)
}

// storageFlags is the shared durability flag group of the campaign and
// tune subcommands.
type storageFlags struct {
	fsyncEvery *int
}

// addStorageFlags registers the checkpoint-durability flags on fs.
func addStorageFlags(fs *flag.FlagSet) *storageFlags {
	return &storageFlags{
		fsyncEvery: fs.Int("fsync-every", 0,
			"fsync the checkpoint after every N recorded cells (0: default bounded-loss policy; negative: only at drain and close)"),
	}
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

// resolveDevices expands and validates a -devices list: empty selects
// the whole Table 3 fleet; an unknown name is a usage error, caught
// before any campaign work begins.
func resolveDevices(list string) ([]string, error) {
	if list == "" {
		var names []string
		for _, prof := range gpu.Profiles() {
			names = append(names, prof.ShortName)
		}
		return names, nil
	}
	var names []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if _, ok := gpu.ProfileByName(name); !ok {
			return nil, fmt.Errorf("unknown device %q", name)
		}
		names = append(names, name)
	}
	return names, nil
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
func campaignVerdict(failedCells, quarantined int, storageDegraded bool, storageErr string) error {
	var parts []string
	if failedCells > 0 {
		parts = append(parts, fmt.Sprintf("%d cell(s) produced no data (%d quarantined)", failedCells, quarantined))
	}
	if storageDegraded {
		parts = append(parts, fmt.Sprintf("checkpoint storage degraded (%s), results not durably checkpointed", storageErr))
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

// writeCampaignArtifact publishes the campaign report atomically
// through the canonical core encoding, so `campaign -out` files and
// serve job reports for the same spec are byte-identical.
func writeCampaignArtifact(path string, a *core.CampaignArtifact) error {
	return a.WriteAtomic(nil, path)
}

func cmdCampaign(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	kind := fs.String("kind", "conformance", "campaign kind: conformance or evaluate")
	out := fs.String("out", "", "write a machine-readable JSON report to this path (atomic)")
	devices := fs.String("devices", "", "comma-separated device names (default: the Table 3 fleet)")
	envNames := fs.String("envs", "pte,site", "comma-separated environment presets")
	iters := fs.Int("iters", 10, "kernel launches per cell")
	seed := fs.Uint64("seed", 1, "campaign seed")
	parallel := fs.Int("parallel", 4, "scheduler workers (any count yields identical results)")
	checkpoint := fs.String("checkpoint", "", "checkpoint path for resumable campaigns")
	resume := fs.Bool("resume", false, "resume from the checkpoint, replaying completed cells")
	retries := fs.Int("retries", 0, "retries per cell on transient failures")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	fenceBug := fs.Bool("fence-bug", false, "inject the fence-dropping driver on every platform")
	ff := addFaultFlags(fs)
	cf := addCancelFlags(fs)
	pf := addProfileFlags(fs)
	sf := addStorageFlags(fs)
	df := addDistFlags(fs)
	chf := addCacheFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Fail fast: everything a flag can get wrong — kind, devices,
	// environment presets, fault parameters, output and profile paths —
	// is rejected here, to stderr with exit 1, before profiling starts,
	// the suite generates, or any campaign work begins.
	switch *kind {
	case "conformance", "evaluate":
	default:
		return fmt.Errorf("unknown campaign kind %q (conformance, evaluate)", *kind)
	}
	names, err := resolveDevices(*devices)
	if err != nil {
		return err
	}
	var envs []harness.Params
	var envList []string
	for _, name := range strings.Split(*envNames, ",") {
		name = strings.TrimSpace(name)
		env, err := envByName(name, 16, 32)
		if err != nil {
			return err
		}
		envs = append(envs, env)
		envList = append(envList, name)
	}
	if err := ff.validate(); err != nil {
		return err
	}
	if err := df.validate(); err != nil {
		return err
	}
	if err := probeOutputPaths(*out, *pf.cpu, *pf.mem); err != nil {
		return err
	}
	cache, err := chf.open()
	if err != nil {
		return err
	}
	defer cacheSummary(os.Stderr, cache)
	ctx, cancel := cf.apply(ctx)
	defer cancel()
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	defer stopProf()
	study, err := core.NewStudy()
	if err != nil {
		return err
	}
	opts := core.CampaignOptions{
		Workers:        *parallel,
		Retries:        *retries,
		CellTimeout:    *cf.cellTimeout,
		CheckpointPath: *checkpoint,
		Resume:         *resume,
		Collect:        *ff.enable,
		Breaker:        ff.breaker(),
		FsyncEvery:     *sf.fsyncEvery,
	}
	faultModel := ff.model(*seed)
	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
		opts.OnProgress = printProgress
		opts.ProgressEvery = progressEvery
	}
	// With -workers-addr the campaign coordinates `mcmutants work`
	// processes over HTTP instead of executing cells itself; the merged
	// report is byte-identical to a local run at any worker count.
	var hub *dist.Hub
	var distLogf func(string, ...any)
	if *df.addr != "" {
		var stopHub func()
		hub, stopHub, err = df.serveHub()
		if err != nil {
			return err
		}
		defer stopHub()
		if !*quiet {
			distLogf = func(format string, a ...any) {
				fmt.Fprintf(os.Stderr, "mcmutants: dist: "+format+"\n", a...)
			}
		}
	}
	ws := campaignWorkSpec(*kind, names, envList, *iters, *seed, *fenceBug, faultModel, *retries, *cf.cellTimeout)
	switch *kind {
	case "conformance":
		var platforms []core.Platform
		for _, name := range names {
			p := core.Platform{Device: name, Faults: faultModel}
			if *fenceBug {
				p.Driver = wgsl.DriverFenceDropping
			}
			platforms = append(platforms, p)
		}
		if hub != nil {
			desc, err := ws.Descriptor()
			if err != nil {
				return err
			}
			opts.Dist = df.options(hub, "conformance", desc, distLogf)
		}
		if cache != nil {
			salt, err := ws.CacheSalt()
			if err != nil {
				return err
			}
			opts.Cache = cache
			opts.CacheSalt = salt
		}
		reports, err := study.CheckFleetConformanceCtx(ctx, platforms, envs[0], *iters, *seed, opts)
		interrupted := errors.Is(err, sched.ErrInterrupted)
		if err != nil && !interrupted {
			return err
		}
		storageDegraded, storageErr := false, ""
		for _, rep := range reports {
			if rep.StorageDegraded {
				storageDegraded, storageErr = true, rep.StorageErr
			}
		}
		bad, failedCells, quarantined, pending := 0, 0, 0, 0
		for _, rep := range reports {
			buggy := rep.Buggy()
			bad += len(buggy)
			fmt.Printf("%-8s %d/%d conformance tests violated\n",
				rep.Platform.Device, len(buggy), len(rep.Findings))
			for _, f := range buggy {
				fmt.Printf("  %-22s %d/%d (%.4g/s)\n    outcome: %s\n    cycle:   %s\n",
					f.Test, f.Violations, f.Instances, f.ViolationRate, f.Outcome, f.Explanation)
			}
			for _, f := range rep.Failed() {
				failedCells++
				if f.Quarantined {
					quarantined++
				}
				fmt.Printf("  %-22s NO DATA: %s\n", f.Test, f.Error)
			}
			for _, f := range rep.Findings {
				if f.Interrupted {
					pending++
				}
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
		if bad > 0 {
			fmt.Printf("\n%d violation(s) across the fleet\n", bad)
		} else if interrupted {
			fmt.Println("\nfleet conforms so far (run interrupted)")
		} else {
			fmt.Println("\nfleet conforms")
		}
		if storageDegraded {
			fmt.Fprintf(os.Stderr, "mcmutants: checkpoint storage degraded, finished in-memory: %s\n", storageErr)
		}
		if *out != "" {
			art := &core.CampaignArtifact{Kind: "conformance", Conformance: reports, StorageDegraded: storageDegraded}
			if err := writeCampaignArtifact(*out, art); err != nil {
				return err
			}
			fmt.Printf("wrote report to %s\n", *out)
		}
		if interrupted {
			msg := fmt.Sprintf("campaign interrupted: %d cell(s) pending", pending)
			if *checkpoint != "" {
				msg += fmt.Sprintf("; resume with -checkpoint %s -resume", *checkpoint)
			}
			return &interruptedRun{msg}
		}
		return campaignVerdict(failedCells, quarantined, storageDegraded, storageErr)
	case "evaluate":
		failedCells, quarantined := 0, 0
		storageDegraded, storageErr := false, ""
		var entries []core.EvaluateEntry
		publish := func() error {
			if *out == "" {
				return nil
			}
			art := &core.CampaignArtifact{Kind: "evaluate", Evaluate: entries, StorageDegraded: storageDegraded}
			if err := writeCampaignArtifact(*out, art); err != nil {
				return err
			}
			fmt.Printf("wrote report to %s\n", *out)
			return nil
		}
		for _, name := range names {
			p := core.Platform{Device: name, Faults: faultModel}
			if *fenceBug {
				p.Driver = wgsl.DriverFenceDropping
			}
			devOpts := opts
			if devOpts.CheckpointPath != "" {
				// One campaign per device; keep their checkpoints apart.
				devOpts.CheckpointPath = fmt.Sprintf("%s.%s", opts.CheckpointPath, p.Device)
			}
			// The per-device work spec: dist advertises it so a worker's
			// locally-planned unit manifest matches the advertised
			// campaign exactly, and the cache salts with it so local and
			// worker-side keys for this device's cells agree.
			wsDev := ws
			wsDev.Devices = []string{p.Device}
			if hub != nil {
				// One coordinator per device, each advertising the
				// single-device descriptor.
				desc, err := wsDev.Descriptor()
				if err != nil {
					return err
				}
				devOpts.Dist = df.options(hub, "evaluate."+p.Device, desc, distLogf)
			}
			if cache != nil {
				salt, err := wsDev.CacheSalt()
				if err != nil {
					return err
				}
				devOpts.Cache = cache
				devOpts.CacheSalt = salt
			}
			score, err := study.EvaluateEnvironmentsCtx(ctx, p, envs, *iters, *seed, devOpts)
			interrupted := errors.Is(err, sched.ErrInterrupted)
			if err != nil && !interrupted {
				return err
			}
			if score.StorageDegraded {
				storageDegraded, storageErr = true, score.StorageErr
				fmt.Fprintf(os.Stderr, "mcmutants: checkpoint storage degraded, finished in-memory: %s\n", score.StorageErr)
			}
			entries = append(entries, core.EvaluateEntry{Device: p.Device, Score: score})
			note := ""
			if interrupted {
				note = " [interrupted, partial]"
			}
			fmt.Printf("%-8s mutation score %.1f%% (%d/%d killed across %d environments), avg death rate %.4g/s%s\n",
				p.Device, 100*score.Score(), score.Killed, score.Total, len(envs), score.AvgDeathRate, note)
			if len(score.Failures) > 0 {
				nq := 0
				for _, cf := range score.Failures {
					if cf.Quarantined {
						nq++
					}
				}
				failedCells += len(score.Failures)
				quarantined += nq
				fmt.Printf("  %d cell(s) produced no data (%d quarantined)\n", len(score.Failures), nq)
			}
			if interrupted {
				if err := publish(); err != nil {
					return err
				}
				msg := "campaign interrupted: per-device evaluation incomplete"
				if opts.CheckpointPath != "" {
					msg += fmt.Sprintf("; resume with -checkpoint %s -resume", opts.CheckpointPath)
				}
				return &interruptedRun{msg}
			}
		}
		if err := publish(); err != nil {
			return err
		}
		return campaignVerdict(failedCells, quarantined, storageDegraded, storageErr)
	default:
		return fmt.Errorf("unknown campaign kind %q (conformance, evaluate)", *kind)
	}
}

func cmdTune(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("tune", flag.ContinueOnError)
	out := fs.String("out", "tuning.json", "output dataset path")
	envs := fs.Int("envs", 12, "random environments per tuned family")
	siteIters := fs.Int("site-iters", 50, "SITE iterations per test")
	pteIters := fs.Int("pte-iters", 8, "PTE iterations per test")
	paperScale := fs.Bool("paper-scale", false, "use the paper's full environment sizes (slow)")
	devices := fs.String("devices", "", "comma-separated device names (default: the Table 3 fleet)")
	seed := fs.Uint64("seed", 2023, "random seed")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	parallel := fs.Int("parallel", 1, "scheduler workers (any count yields the identical dataset)")
	checkpoint := fs.String("checkpoint", "", "checkpoint path (default <out>.ckpt when -resume is set)")
	resume := fs.Bool("resume", false, "resume from the checkpoint, replaying completed cells")
	retries := fs.Int("retries", 0, "retries per cell on transient failures")
	ff := addFaultFlags(fs)
	cf := addCancelFlags(fs)
	pf := addProfileFlags(fs)
	sf := addStorageFlags(fs)
	chf := addCacheFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Fail fast on bad flags — before profiling, suite generation or
	// any tuning work (see the same block in cmdCampaign).
	if *envs <= 0 || *siteIters <= 0 || *pteIters <= 0 {
		return fmt.Errorf("-envs, -site-iters and -pte-iters must be positive")
	}
	var tuneDevices []string
	if *devices != "" {
		devs, err := resolveDevices(*devices)
		if err != nil {
			return err
		}
		tuneDevices = devs
	}
	if err := ff.validate(); err != nil {
		return err
	}
	if err := probeOutputPaths(*out, *pf.cpu, *pf.mem); err != nil {
		return err
	}
	cache, err := chf.open()
	if err != nil {
		return err
	}
	defer cacheSummary(os.Stderr, cache)
	ctx, cancel := cf.apply(ctx)
	defer cancel()
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	defer stopProf()
	suite, err := mutation.Generate()
	if err != nil {
		return err
	}
	cfg := tuning.SmallConfig()
	cfg.Environments = *envs
	cfg.SITEIterations = *siteIters
	cfg.PTEIterations = *pteIters
	cfg.Seed = *seed
	if *paperScale {
		cfg = tuning.PaperConfig()
		cfg.Seed = *seed
	}
	if len(tuneDevices) > 0 {
		cfg.Devices = tuneDevices
	}
	if fm := ff.model(*seed); fm.Enabled() || fm.WatchdogTicks > 0 {
		cfg.Faults = &fm
	}
	opts := tuning.RunOptions{
		Workers:        *parallel,
		CheckpointPath: *checkpoint,
		Resume:         *resume,
		Retries:        *retries,
		CellTimeout:    *cf.cellTimeout,
		Breaker:        ff.breaker(),
		FsyncEvery:     *sf.fsyncEvery,
	}
	if cache != nil {
		opts.Cache = cache
	}
	if opts.Resume && opts.CheckpointPath == "" {
		opts.CheckpointPath = *out + ".ckpt"
	}
	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
		opts.OnProgress = printProgress
		opts.ProgressEvery = progressEvery
	}
	ds, err := tuning.RunCampaignCtx(ctx, cfg, suite.Mutants, opts)
	if err != nil {
		return err
	}
	if err := ds.SaveAtomic(nil, *out); err != nil {
		return err
	}
	if ds.StorageDegraded {
		fmt.Fprintf(os.Stderr, "mcmutants: checkpoint storage degraded, finished in-memory: %s\n", ds.StorageErr)
	}
	if ds.Interrupted {
		fmt.Printf("wrote %d records to %s (run interrupted; dataset partial)\n", len(ds.Records), *out)
	} else {
		fmt.Printf("wrote %d records to %s\n", len(ds.Records), *out)
	}
	nq := 0
	for _, d := range ds.Dropped {
		if d.Quarantined {
			nq++
		}
	}
	if len(ds.Dropped) > 0 {
		fmt.Printf("%d cell(s) dropped (%d quarantined) — recorded in the dataset's dropped list\n",
			len(ds.Dropped), nq)
	}
	if ds.Interrupted {
		// The partial dataset is written and every completed cell is in
		// the checkpoint; a resumed run replays them and finishes the
		// rest, producing a byte-identical final dataset. Skip the Fig. 5
		// analysis — it would summarize an incomplete grid.
		msg := "tuning run interrupted: dataset is partial"
		if opts.CheckpointPath != "" {
			msg += fmt.Sprintf("; resume with -checkpoint %s -resume", opts.CheckpointPath)
		}
		return &interruptedRun{msg}
	}
	fmt.Println()
	fmt.Print(report.Fig5(ds))
	var parts []string
	if len(ds.Dropped) > 0 {
		parts = append(parts, fmt.Sprintf("%d cell(s) dropped (%d quarantined)", len(ds.Dropped), nq))
	}
	if ds.StorageDegraded {
		parts = append(parts, fmt.Sprintf("checkpoint storage degraded (%s), results not durably checkpointed", ds.StorageErr))
	}
	if len(parts) > 0 {
		return &partialFailure{"tuning run degraded: " + strings.Join(parts, "; ")}
	}
	return nil
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
	sf := addStorageFlags(fs)
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
		FsyncEvery:    *sf.fsyncEvery,
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
	action := fs.String("action", "mutation-score", "mutation-score, merge or correlation")
	statsPath := fs.String("stats", "tuning.json", "dataset path (mutation-score, merge)")
	family := fs.String("family", "PTE", "environment family")
	rep := fs.Float64("rep", 95, "reproducibility target in percent")
	budget := fs.Float64("budget", 1, "per-test time budget in seconds")
	envs := fs.Int("envs", 24, "environments for the correlation study")
	iters := fs.Int("iters", 4, "iterations per environment (correlation)")
	seed := fs.Uint64("seed", 2023, "random seed (correlation)")
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
	case "correlation":
		suite, err := mutation.Generate()
		if err != nil {
			return err
		}
		cfg := tuning.SmallCorrelationConfig()
		cfg.Environments = *envs
		cfg.Iterations = *iters
		cfg.Seed = *seed
		var results []*tuning.CorrelationResult
		for _, c := range tuning.PaperBugCases() {
			fmt.Fprintf(os.Stderr, "correlating %s (%d environments)...\n", c.Name, cfg.Environments)
			r, err := tuning.Correlate(c, suite, cfg)
			if err != nil {
				return err
			}
			results = append(results, r)
		}
		fmt.Print(report.Table4(results))
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

func cmdOptimize(args []string) error {
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
	best, err := tuning.Optimize(test, *device, cfg)
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
