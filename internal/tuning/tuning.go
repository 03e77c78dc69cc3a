// Package tuning orchestrates the paper's evaluation (Sec. 5): random
// testing environments are generated per family (SITE Baseline, SITE,
// PTE Baseline, PTE), every mutant is executed in every environment on
// every device, and the resulting dataset yields the mutation scores
// and mutant death rates of Fig. 5, the rate tables Algorithm 1 merges
// for Fig. 6, and the correlation study of Table 4.
//
// Datasets serialize to JSON, mirroring the artifact's per-device
// result files.
package tuning

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/confidence"
	"repro/internal/diskio"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Family enumerates the four environment families of Sec. 5.1.
type Family int

const (
	// SITEBaseline is a single test instance with no stress.
	SITEBaseline Family = iota
	// SITE is single-instance with randomly tuned stress (prior work).
	SITE
	// PTEBaseline is parallel instances with no stress.
	PTEBaseline
	// PTE is parallel instances with randomly tuned stress.
	PTE
)

// String names the family as in the paper.
func (f Family) String() string {
	switch f {
	case SITEBaseline:
		return "SITE-Baseline"
	case SITE:
		return "SITE"
	case PTEBaseline:
		return "PTE-Baseline"
	case PTE:
		return "PTE"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Parallel reports whether the family runs parallel instances.
func (f Family) Parallel() bool { return f == PTEBaseline || f == PTE }

// Baseline reports whether the family is stress-free.
func (f Family) Baseline() bool { return f == SITEBaseline || f == PTEBaseline }

// Families returns all four families in paper order.
func Families() []Family { return []Family{SITEBaseline, SITE, PTEBaseline, PTE} }

// FamilyByName resolves a family name.
func FamilyByName(name string) (Family, bool) {
	for _, f := range Families() {
		if f.String() == name {
			return f, true
		}
	}
	return 0, false
}

// Config sizes a tuning run. The paper's run (PaperConfig) uses 150
// environments with 300 SITE / 100 PTE iterations; SmallConfig scales
// everything down for simulation-backed tests.
type Config struct {
	// Environments is the number of random environments per tuned
	// family (baselines always use exactly one, their preset).
	Environments int
	// SITEIterations and PTEIterations are kernel launches per (env,
	// test, device). The paper runs SITE longer to give it more
	// opportunities (Sec. 5.1).
	SITEIterations int
	PTEIterations  int
	// PTEWorkgroups and PTEWorkgroupSize size the PTE Baseline preset.
	PTEWorkgroups    int
	PTEWorkgroupSize int
	// Scale bounds random environment generation.
	Scale harness.Scale
	// Devices lists profile short names; empty means the four study
	// devices of Table 3.
	Devices []string
	// Seed drives all randomness.
	Seed uint64
	// Faults, when non-nil, injects deterministic device-stack faults
	// into every cell's device (see gpu.FaultModel). Nil runs the fleet
	// fault-free and serializes identically to configs predating the
	// field.
	Faults *gpu.FaultModel `json:"faults,omitempty"`
}

// PaperConfig mirrors Sec. 5.1's sizes. Running it under simulation
// takes hours; it exists for the CLI's full mode.
func PaperConfig() Config {
	return Config{
		Environments:   150,
		SITEIterations: 300,
		PTEIterations:  100,
		PTEWorkgroups:  1024, PTEWorkgroupSize: 256,
		Scale: harness.PaperScale(),
		Seed:  2023,
	}
}

// SmallConfig is a scaled-down run preserving the qualitative shape;
// tests and benchmarks use it.
func SmallConfig() Config {
	return Config{
		Environments:   6,
		SITEIterations: 20,
		PTEIterations:  4,
		PTEWorkgroups:  8, PTEWorkgroupSize: 16,
		Scale: harness.DefaultScale(),
		Seed:  2023,
	}
}

func (c *Config) devices() []string {
	if len(c.Devices) > 0 {
		return c.Devices
	}
	names := make([]string, 0, 4)
	for _, p := range gpu.Profiles() {
		names = append(names, p.ShortName)
	}
	return names
}

func (c *Config) iterations(f Family) int {
	if f.Parallel() {
		return c.PTEIterations
	}
	return c.SITEIterations
}

// Record is one (environment, device, test) measurement.
type Record struct {
	Family      string         `json:"family"`
	EnvID       string         `json:"env_id"`
	Env         harness.Params `json:"env"`
	Device      string         `json:"device"`
	Test        string         `json:"test"`
	Mutator     string         `json:"mutator"`
	IsMutant    bool           `json:"is_mutant"`
	Iterations  int            `json:"iterations"`
	Instances   int            `json:"instances"`
	TargetCount int            `json:"target_count"`
	Violations  int            `json:"violations"`
	SimSeconds  float64        `json:"sim_seconds"`
	TargetRate  float64        `json:"target_rate"`
	// Discarded counts iterations the harness threw away after detecting
	// result corruption; zero (and omitted) on a healthy fleet.
	Discarded int `json:"discarded,omitempty"`
}

// DroppedRecord documents one campaign cell that produced no record: a
// permanent device failure or a cell quarantined by the circuit
// breaker. Dropped cells are part of the dataset — a faulty fleet's
// gaps are reported, never silent.
type DroppedRecord struct {
	// Key is the campaign cell key (envID/device/test).
	Key string `json:"key"`
	// Device is the cell's device short name.
	Device string `json:"device"`
	// Error is the failure rendered as text.
	Error string `json:"error"`
	// Quarantined marks breaker-skipped cells.
	Quarantined bool `json:"quarantined,omitempty"`
	// Attempts counts executions, 0 when the cell never ran.
	Attempts int `json:"attempts,omitempty"`
}

// Dataset is a tuning run's full results.
type Dataset struct {
	Config  Config   `json:"config"`
	Records []Record `json:"records"`
	// Dropped lists cells that produced no record, in campaign order;
	// empty (and omitted) on a healthy fleet.
	Dropped []DroppedRecord `json:"dropped,omitempty"`
	// Interrupted marks a partial dataset from a campaign that was
	// cancelled (signal or deadline expiry) and drained. Cells absent
	// from Records and Dropped are pending, not failed; resuming from
	// the campaign's checkpoint completes the dataset byte-identically
	// to an uninterrupted run, at which point the field is false again.
	Interrupted bool `json:"interrupted,omitempty"`
	// StorageDegraded marks a dataset whose campaign checkpoint hit a
	// persistent storage failure (ENOSPC, EIO) and finished in-memory:
	// the records are complete and correct, but the checkpoint does not
	// durably cover them, so a crash before this dataset was written
	// would have re-run them. StorageErr carries the cause.
	StorageDegraded bool   `json:"storage_degraded,omitempty"`
	StorageErr      string `json:"storage_err,omitempty"`
}

// Save writes the dataset as JSON indented by one space per level,
// newline-terminated — the bytes json.Encoder with SetIndent("", " ")
// writes. It marshals once and indents in one streaming pass, so the
// indented document is never held in memory.
func (ds *Dataset) Save(w io.Writer) error {
	raw, err := json.Marshal(ds)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	indent(bw, raw)
	bw.WriteByte('\n')
	return bw.Flush()
}

// indentSpaces serves the indentation runs indent writes.
var indentSpaces = strings.Repeat(" ", 64)

// indent writes src, compact JSON as encoding/json renders it, laid
// out exactly as json.Indent(dst, src, "", " ") would: a newline and
// one space per depth after every opening bracket, comma and before
// every closing bracket, a space after every colon, and empty objects
// and arrays kept as {} and []. Bytes inside strings are copied as
// they are, runs at a time. Write errors stick in w and surface at its
// Flush.
func indent(w *bufio.Writer, src []byte) {
	depth, start := 0, 0
	open, inString := false, false
	newline := func(upTo int) {
		w.Write(src[start:upTo])
		start = upTo
		w.WriteByte('\n')
		for n := depth; n > 0; n -= len(indentSpaces) {
			w.WriteString(indentSpaces[:min(n, len(indentSpaces))])
		}
	}
	for i := 0; i < len(src); i++ {
		c := src[i]
		if inString {
			switch c {
			case '\\':
				i++
			case '"':
				inString = false
			}
			continue
		}
		if open && c != '}' && c != ']' {
			open = false
			depth++
			newline(i)
		}
		switch c {
		case '"':
			inString = true
		case '{', '[':
			open = true
		case ',':
			newline(i + 1)
		case ':':
			w.Write(src[start : i+1])
			w.WriteByte(' ')
			start = i + 1
		case '}', ']':
			if open {
				open = false
			} else {
				depth--
				newline(i)
			}
		}
	}
	w.Write(src[start:])
}

// SaveAtomic publishes the dataset at path with all-or-nothing
// visibility (write temp → fsync → rename → fsync dir): a reader — or
// a crash at any instant — observes either the previous complete
// dataset or the new complete one, never a partial JSON document.
func (ds *Dataset) SaveAtomic(fsys diskio.FS, path string) error {
	if fsys == nil {
		fsys = diskio.OS{}
	}
	return diskio.WriteAtomic(fsys, path, ds.Save)
}

// Load reads a dataset written by Save.
func Load(r io.Reader) (*Dataset, error) {
	var ds Dataset
	if err := json.NewDecoder(r).Decode(&ds); err != nil {
		return nil, fmt.Errorf("tuning: decode dataset: %w", err)
	}
	return &ds, nil
}

// environments materializes a family's environment list. Tuned
// families draw from an RNG derived purely from (seed, family), so the
// environment grid is a function of the config alone — independent of
// scheduling, worker count, and any other family's draws.
func environments(f Family, cfg *Config) []harness.Params {
	switch f {
	case SITEBaseline:
		return []harness.Params{harness.SITEBaseline()}
	case PTEBaseline:
		return []harness.Params{harness.PTEBaseline(cfg.PTEWorkgroups, cfg.PTEWorkgroupSize)}
	default:
		rng := xrand.NewFromPath(cfg.Seed, "tuning-envs", f.String())
		envs := make([]harness.Params, cfg.Environments)
		for i := range envs {
			envs[i] = harness.Random(rng, f.Parallel(), cfg.Scale)
		}
		return envs
	}
}

// RunOptions configures campaign execution: parallelism, checkpointing
// and progress. The zero value is a serial, checkpoint-free run.
type RunOptions struct {
	// Workers bounds the scheduler's pool; < 1 means serial. Any
	// worker count produces bit-identical datasets.
	Workers int
	// CheckpointPath, when non-empty, records completed cells as JSONL
	// so an interrupted run can resume.
	CheckpointPath string
	// Resume replays cells already present in the checkpoint instead
	// of re-running them. Requires CheckpointPath.
	Resume bool
	// FsyncEvery tunes the checkpoint's bounded-loss durability policy:
	// the file is fsynced after every N recorded cells. 0 means
	// sched.DefaultFsyncEvery; negative syncs only at drain and close.
	FsyncEvery int
	// FS is the filesystem the checkpoint goes through; nil means the
	// real filesystem. Tests inject a fault model (diskio.FaultFS).
	FS diskio.FS
	// Progress, when non-nil, receives one line as each cell starts.
	Progress func(string)
	// OnProgress, when non-nil, receives cumulative structured campaign
	// snapshots — one every ProgressEvery plus a final settled one
	// before the run returns (see sched.Progress). The serve
	// subsystem's SSE hub and metrics feed from this hook.
	OnProgress func(sched.Progress)
	// ProgressEvery is the OnProgress cadence; zero means
	// sched.DefaultProgressEvery.
	ProgressEvery time.Duration
	// Retries and Backoff configure transient-failure handling per
	// cell.
	Retries int
	Backoff time.Duration
	// CellTimeout, when positive, bounds each cell's wall-clock time
	// and makes the campaign collect: an overrun fails that one cell (it
	// lands in Dataset.Dropped) without interrupting the campaign.
	CellTimeout time.Duration
	// Breaker, when non-nil, enables the per-device circuit breaker:
	// a device failing Threshold cells in a row is quarantined for
	// Cooldown cells while the run continues on the surviving fleet.
	// Failed and quarantined cells land in Dataset.Dropped instead of
	// aborting the run.
	Breaker *sched.BreakerOptions
	// Cache, when non-nil, is the persistent result cache consulted
	// before each cell executes and published to after a cell succeeds.
	// The cache salt is derived from the full Config plus the retry
	// policy, so two runs share entries exactly when they would compute
	// identical measurements; a warm re-run of the same study skips the
	// simulation entirely and still emits a byte-identical dataset.
	Cache sched.ResultCache
}

// cachePayload names the layout of the value a tuning cell caches.
// It is part of the cache salt, so entries of different layouts get
// different digests and can never be read as one another: builds that
// cached whole Records salted without it. Change it whenever the
// cached value's layout changes.
const cachePayload = "tuning-measurement/v1"

// cacheSaltPayload is what a tuning run's cache salt serializes: the
// cached value's layout and every workload parameter outside the
// scheduler spec that can change a cell's measurement or its retry
// accounting.
type cacheSaltPayload struct {
	Payload       string `json:"payload"`
	Config        Config `json:"config"`
	Retries       int    `json:"retries,omitempty"`
	BackoffMS     int64  `json:"backoff_ms,omitempty"`
	CellTimeoutMS int64  `json:"cell_timeout_ms,omitempty"`
}

// cacheSalt derives the result-cache salt of a tuning run, the
// counterpart of core.WorkSpec.CacheSalt for the tuning study.
func cacheSalt(cfg Config, opts RunOptions) (string, error) {
	raw, err := json.Marshal(cacheSaltPayload{
		Payload:       cachePayload,
		Config:        cfg,
		Retries:       opts.Retries,
		BackoffMS:     opts.Backoff.Milliseconds(),
		CellTimeoutMS: opts.CellTimeout.Milliseconds(),
	})
	if err != nil {
		return "", fmt.Errorf("tuning: encode cache salt: %w", err)
	}
	return string(raw), nil
}

// tuningCell is one campaign cell's work order.
type tuningCell struct {
	family Family
	envID  string
	env    harness.Params
	device string
	test   *litmus.Test
	iters  int
}

// buildCampaign expands the config into the scheduler spec and the
// per-key work map. Cell order is the dataset's record order.
func buildCampaign(cfg *Config, tests []*litmus.Test) (sched.Spec, map[string]tuningCell, error) {
	spec := sched.Spec{Name: "tune", Seed: cfg.Seed}
	work := map[string]tuningCell{}
	for _, fam := range Families() {
		envs := environments(fam, cfg)
		iters := cfg.iterations(fam)
		for ei, env := range envs {
			envID := fmt.Sprintf("%s-%03d", fam, ei)
			for _, devName := range cfg.devices() {
				if _, ok := gpu.ProfileByName(devName); !ok {
					return sched.Spec{}, nil, fmt.Errorf("tuning: unknown device %q", devName)
				}
				for _, test := range tests {
					key := fmt.Sprintf("%s/%s/%s", envID, devName, test.Name)
					spec.Cells = append(spec.Cells, sched.Cell{Key: key, Device: devName})
					work[key] = tuningCell{
						family: fam, envID: envID, env: env,
						device: devName, test: test, iters: iters,
					}
				}
			}
		}
	}
	return spec, work, nil
}

// measurement is what executing one cell computes: the measured
// fields of its Record. The rest of the Record is a function of the
// cell key, so the scheduler carries, checkpoints and caches only
// this, and RunCampaignCtx joins the two. The JSON names are Record's,
// so a checkpointed Record decodes as its measurement.
type measurement struct {
	Iterations  int     `json:"iterations"`
	Instances   int     `json:"instances"`
	TargetCount int     `json:"target_count"`
	Violations  int     `json:"violations"`
	SimSeconds  float64 `json:"sim_seconds"`
	TargetRate  float64 `json:"target_rate"`
	Discarded   int     `json:"discarded,omitempty"`
}

// measure runs the cell on the given (possibly warm) runner, writing
// into the caller's reusable Result.
func measure(ctx context.Context, w tuningCell, runner *harness.Runner, res *harness.Result, rng *xrand.Rand) (measurement, error) {
	if err := runner.RunInto(ctx, res, w.test, w.iters, rng); err != nil {
		return measurement{}, fmt.Errorf("tuning: %s/%s/%s: %w", w.envID, w.device, w.test.Name, err)
	}
	return measurement{
		Iterations:  res.Iterations,
		Instances:   res.Instances,
		TargetCount: res.TargetCount,
		Violations:  res.Violations,
		SimSeconds:  res.SimSeconds,
		TargetRate:  res.TargetRate(),
		Discarded:   res.Discarded,
	}, nil
}

// record assembles the cell's dataset record from its measurement.
func (w tuningCell) record(m measurement) Record {
	return Record{
		Family:      w.family.String(),
		EnvID:       w.envID,
		Env:         w.env,
		Device:      w.device,
		Test:        w.test.Name,
		Mutator:     w.test.Mutator,
		IsMutant:    w.test.IsMutant,
		Iterations:  m.Iterations,
		Instances:   m.Instances,
		TargetCount: m.TargetCount,
		Violations:  m.Violations,
		SimSeconds:  m.SimSeconds,
		TargetRate:  m.TargetRate,
		Discarded:   m.Discarded,
	}
}

// runnerKey identifies the runner a cell needs: runners are shared
// across tests but are specific to a device and environment.
type runnerKey struct {
	device string
	env    harness.Params
}

// newRunner builds a fault-free device and runner for the key;
// harness.WarmRunner.Get installs the run's fault model.
func newRunner(k runnerKey) (*harness.Runner, error) {
	prof, ok := gpu.ProfileByName(k.device)
	if !ok {
		return nil, fmt.Errorf("tuning: unknown device %q", k.device)
	}
	dev, err := gpu.NewDevice(prof, gpu.Bugs{})
	if err != nil {
		return nil, err
	}
	return harness.NewRunner(dev, k.env)
}

// newWorkerExec returns the campaign's per-worker exec factory (see
// sched.Options.NewWorkerExec). Each worker keeps one warm runner,
// rebuilt when the cell's (device, environment) changes — cells are
// ordered (family, environment, device, test), so a worker sees long
// runs of one key — and one reused Result, so cells on a warm runner
// run allocation-free.
func newWorkerExec(work map[string]tuningCell, faults *gpu.FaultModel) func() sched.Exec[measurement] {
	var fm gpu.FaultModel
	if faults != nil {
		fm = *faults
	}
	return func() sched.Exec[measurement] {
		warm := harness.WarmRunner[runnerKey]{New: newRunner}
		var res harness.Result
		return func(ctx context.Context, c sched.Cell, rng *xrand.Rand) (measurement, error) {
			w, ok := work[c.Key]
			if !ok {
				return measurement{}, fmt.Errorf("tuning: unknown cell %q", c.Key)
			}
			runner, err := warm.Get(runnerKey{device: w.device, env: w.env}, fm)
			if err != nil {
				return measurement{}, err
			}
			return measure(ctx, w, runner, &res, rng)
		}
	}
}

// CampaignSpec returns the scheduler spec RunCampaign executes for the
// config and tests, without running anything. Its Manifest() identifies
// the campaign's cell grid — the serve subsystem derives idempotent job
// IDs from it, and it is the manifest the run's checkpoint will carry.
func CampaignSpec(cfg Config, tests []*litmus.Test) (sched.Spec, error) {
	if len(tests) == 0 {
		return sched.Spec{}, fmt.Errorf("tuning: no tests")
	}
	spec, _, err := buildCampaign(&cfg, tests)
	return spec, err
}

// RunCampaign is RunCampaignCtx under context.Background().
func RunCampaign(cfg Config, tests []*litmus.Test, opts RunOptions) (*Dataset, error) {
	return RunCampaignCtx(context.Background(), cfg, tests, opts)
}

// RunCampaignCtx executes the tuning study as a scheduled campaign:
// every (environment, device, test) cell derives its RNG stream purely
// from the config seed and the cell's identity, so any worker count —
// and any interleaving of checkpoint resume — produces a bit-identical
// dataset.
//
// Cancelling ctx drains the campaign and returns the partial dataset
// with Interrupted set (and a nil error): completed cells are in
// Records, failures in Dropped, and the abandoned remainder is pending
// in the checkpoint, so a resumed run finishes the dataset
// byte-identical to an uninterrupted one.
func RunCampaignCtx(ctx context.Context, cfg Config, tests []*litmus.Test, opts RunOptions) (*Dataset, error) {
	if len(tests) == 0 {
		return nil, fmt.Errorf("tuning: no tests")
	}
	spec, work, err := buildCampaign(&cfg, tests)
	if err != nil {
		return nil, err
	}
	schedOpts := sched.Options[measurement]{
		Workers:       opts.Workers,
		MaxRetries:    opts.Retries,
		Backoff:       opts.Backoff,
		CellTimeout:   opts.CellTimeout,
		Collect:       opts.CellTimeout > 0,
		Breaker:       opts.Breaker,
		OnProgress:    opts.OnProgress,
		ProgressEvery: opts.ProgressEvery,
		Instances:     func(m measurement) int { return m.Instances },
		// Each worker gets private warm scratch — a runner and a Result
		// reused across that worker's cells — so the steady-state
		// campaign loop stops allocating. Cell randomness derives purely
		// from (seed, cell key), so which worker's scratch a cell lands
		// on cannot change its measurement.
		NewWorkerExec: newWorkerExec(work, cfg.Faults),
	}
	if opts.Cache != nil {
		salt, err := cacheSalt(cfg, opts)
		if err != nil {
			return nil, err
		}
		schedOpts.Cache = opts.Cache
		schedOpts.CacheSalt = salt
	}
	if opts.Progress != nil {
		progress := opts.Progress
		schedOpts.OnCellStart = func(c sched.Cell) {
			w := work[c.Key]
			progress(fmt.Sprintf("%s on %s: %s (%d iterations)", w.envID, w.device, w.test.Name, w.iters))
		}
	}
	if opts.Resume && opts.CheckpointPath == "" {
		return nil, fmt.Errorf("tuning: Resume requires CheckpointPath")
	}
	if opts.CheckpointPath != "" {
		ck, err := sched.OpenCheckpointOpts(opts.CheckpointPath, spec, opts.Resume,
			sched.CheckpointOptions{FS: opts.FS, FsyncEvery: opts.FsyncEvery})
		if err != nil {
			return nil, err
		}
		defer ck.Close()
		schedOpts.Checkpoint = ck
	}
	rep, err := sched.RunContext(ctx, spec, nil, schedOpts)
	interrupted := errors.Is(err, sched.ErrInterrupted)
	if err != nil && !interrupted {
		return nil, err
	}
	ds := &Dataset{Config: cfg, Interrupted: interrupted,
		StorageDegraded: rep.StorageDegraded, StorageErr: rep.StorageErr,
		Records: make([]Record, 0, len(rep.Results))}
	for _, cr := range rep.Results {
		switch {
		case cr.Interrupted:
			// Abandoned by cancellation: pending, not failed. The cell is
			// absent from the checkpoint, so a resumed run re-executes it;
			// recording it as dropped would make the partial dataset claim
			// a failure that never happened.
		case cr.Err != nil:
			ds.Dropped = append(ds.Dropped, DroppedRecord{
				Key:         cr.Cell.Key,
				Device:      cr.Cell.Device,
				Error:       cr.Err.Error(),
				Quarantined: cr.Quarantined,
				Attempts:    cr.Attempts,
			})
		default:
			ds.Records = append(ds.Records, work[cr.Cell.Key].record(cr.Value))
		}
	}
	return ds, nil
}

// MutationScore computes the Fig. 5 mutation score: the fraction of
// mutants killed in at least one environment of the family on the
// device. Empty device ("") aggregates over all devices; empty mutator
// aggregates over all mutators.
func (ds *Dataset) MutationScore(family, device, mutator string) (killed, total int) {
	type key struct{ test, device string }
	kills := map[key]bool{}
	seen := map[key]bool{}
	for _, r := range ds.Records {
		if !r.IsMutant || r.Family != family {
			continue
		}
		if device != "" && r.Device != device {
			continue
		}
		if mutator != "" && r.Mutator != mutator {
			continue
		}
		k := key{r.Test, r.Device}
		seen[k] = true
		if r.TargetCount > 0 {
			kills[k] = true
		}
	}
	return len(kills), len(seen)
}

// AvgDeathRate computes the Fig. 5 average mutant death rate: the mean
// over (mutant, device) pairs of the maximum kill rate across the
// family's environments. Filters as in MutationScore.
func (ds *Dataset) AvgDeathRate(family, device, mutator string) float64 {
	type key struct{ test, device string }
	maxRate := map[key]float64{}
	for _, r := range ds.Records {
		if !r.IsMutant || r.Family != family {
			continue
		}
		if device != "" && r.Device != device {
			continue
		}
		if mutator != "" && r.Mutator != mutator {
			continue
		}
		k := key{r.Test, r.Device}
		if _, ok := maxRate[k]; !ok {
			maxRate[k] = 0
		}
		if r.TargetRate > maxRate[k] {
			maxRate[k] = r.TargetRate
		}
	}
	if len(maxRate) == 0 {
		return 0
	}
	rates := make([]float64, 0, len(maxRate))
	for _, v := range maxRate {
		rates = append(rates, v)
	}
	// Map iteration order is random; fix the summation order so the
	// mean is bit-identical across calls on equal datasets.
	sort.Float64s(rates)
	return stats.Mean(rates)
}

// RateTables builds per-mutant confidence rate tables for one family:
// environment key -> device -> death rate, the input to Algorithm 1
// and the Fig. 6 sweep.
func (ds *Dataset) RateTables(family string) []confidence.TestRates {
	byTest := map[string]confidence.RateTable{}
	var order []string
	for _, r := range ds.Records {
		if !r.IsMutant || r.Family != family {
			continue
		}
		rt, ok := byTest[r.Test]
		if !ok {
			rt = confidence.RateTable{}
			byTest[r.Test] = rt
			order = append(order, r.Test)
		}
		if rt[r.EnvID] == nil {
			rt[r.EnvID] = map[string]float64{}
		}
		rt[r.EnvID][r.Device] = r.TargetRate
	}
	out := make([]confidence.TestRates, 0, len(order))
	for _, name := range order {
		out = append(out, confidence.TestRates{Test: name, Rates: byTest[name]})
	}
	return out
}

// Devices returns the distinct device names in record order.
func (ds *Dataset) Devices() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range ds.Records {
		if !seen[r.Device] {
			seen[r.Device] = true
			out = append(out, r.Device)
		}
	}
	return out
}

// Mutators returns the distinct mutator names in record order.
func (ds *Dataset) Mutators() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range ds.Records {
		if r.Mutator != "" && !seen[r.Mutator] {
			seen[r.Mutator] = true
			out = append(out, r.Mutator)
		}
	}
	return out
}
