// Package tuning orchestrates the paper's evaluation (Sec. 5): random
// testing environments are generated per family (SITE Baseline, SITE,
// PTE Baseline, PTE), every mutant is executed in every environment on
// every device, and the resulting dataset yields the mutation scores
// and mutant death rates of Fig. 5 and the rate tables Algorithm 1
// merges for Fig. 6.
//
// Datasets serialize to JSON, mirroring the artifact's per-device
// result files.
package tuning

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/confidence"
	"repro/internal/diskio"
	"repro/internal/dist"
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
// newline-terminated: the bytes json.Encoder with SetIndent("", " ")
// writes, in one pass through a 64 KiB buffer.
//
// Records, the bulk of a dataset, are appended field by field without
// reflection (see Record.appendJSON), and each distinct environment is
// rendered once and its bytes reused by every record that runs in it.
// The memo is keyed on the harness.Params value, so the output stays a
// pure function of the struct whatever the records' EnvIDs say. The
// config and the fields after the records, written once per dataset,
// go through json.Marshal and indent. Everything that can fail — a NaN
// or infinite float, which json.Marshal refuses — fails before the
// first byte is written.
func (ds *Dataset) Save(w io.Writer) error {
	frame := *ds
	frame.Records = nil
	raw, err := json.Marshal(&frame)
	if err != nil {
		return err
	}
	for i := range ds.Records {
		if err := ds.Records[i].checkFloats(); err != nil {
			return err
		}
	}
	// The records' slot splits the frame into the config before it and
	// the optional fields after it. Its bytes occur nowhere else: inside
	// a string every quote is escaped, and no nested object has a
	// "records" key.
	cut := bytes.Index(raw, recordsSlot)
	bw := bufio.NewWriterSize(w, 64<<10)
	buf := indent(make([]byte, 0, 4<<10), raw[:cut], 0)
	switch {
	case ds.Records == nil:
		buf = append(buf, ",\n \"records\": null"...)
	case len(ds.Records) == 0:
		buf = append(buf, ",\n \"records\": []"...)
	default:
		buf = append(buf, ",\n \"records\": ["...)
		envs := map[harness.Params][]byte{}
		for i := range ds.Records {
			r := &ds.Records[i]
			env, ok := envs[r.Env]
			if !ok {
				// Params holds only integers and booleans, so it always marshals.
				compact, _ := json.Marshal(r.Env)
				env = indent(nil, compact, 3)
				envs[r.Env] = env
			}
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = r.appendJSON(buf, env)
			bw.Write(buf)
			buf = buf[:0]
		}
		buf = append(buf, "\n ]"...)
	}
	buf = indent(buf, raw[cut+len(recordsSlot):], 1)
	buf = append(buf, '\n')
	bw.Write(buf)
	return bw.Flush()
}

// recordsSlot is where the records sit in the compact rendering of a
// dataset whose Records is nil.
var recordsSlot = []byte(`,"records":null`)

// checkFloats fails on a float json.Marshal refuses, with its error.
func (r *Record) checkFloats() error {
	for _, f := range [...]float64{r.SimSeconds, r.TargetRate} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			_, err := json.Marshal(f)
			return err
		}
	}
	return nil
}

// appendJSON appends the record as the indenting encoder lays out an
// element of the dataset's records array — preceded by its newline and
// indented two levels deep — with env as the rendering of r.Env. Its
// floats must have passed checkFloats.
func (r *Record) appendJSON(b, env []byte) []byte {
	b = append(b, "\n  {\n   \"family\": "...)
	b = appendString(b, r.Family)
	b = append(b, ",\n   \"env_id\": "...)
	b = appendString(b, r.EnvID)
	b = append(b, ",\n   \"env\": "...)
	b = append(b, env...)
	b = append(b, ",\n   \"device\": "...)
	b = appendString(b, r.Device)
	b = append(b, ",\n   \"test\": "...)
	b = appendString(b, r.Test)
	b = append(b, ",\n   \"mutator\": "...)
	b = appendString(b, r.Mutator)
	b = append(b, ",\n   \"is_mutant\": "...)
	b = strconv.AppendBool(b, r.IsMutant)
	b = append(b, ",\n   \"iterations\": "...)
	b = strconv.AppendInt(b, int64(r.Iterations), 10)
	b = append(b, ",\n   \"instances\": "...)
	b = strconv.AppendInt(b, int64(r.Instances), 10)
	b = append(b, ",\n   \"target_count\": "...)
	b = strconv.AppendInt(b, int64(r.TargetCount), 10)
	b = append(b, ",\n   \"violations\": "...)
	b = strconv.AppendInt(b, int64(r.Violations), 10)
	b = append(b, ",\n   \"sim_seconds\": "...)
	b = appendFloat(b, r.SimSeconds)
	b = append(b, ",\n   \"target_rate\": "...)
	b = appendFloat(b, r.TargetRate)
	if r.Discarded != 0 {
		b = append(b, ",\n   \"discarded\": "...)
		b = strconv.AppendInt(b, int64(r.Discarded), 10)
	}
	return append(b, "\n  }"...)
}

// appendString appends s as encoding/json quotes it. Plain printable
// ASCII is copied as it is; anything json.Marshal escapes — quote,
// backslash, the HTML-escaped <, > and &, control bytes and non-ASCII
// — is left to json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends a finite f as encoding/json renders a float64:
// the shortest decimal that round-trips, in exponent form below 1e-6
// and from 1e21 up, with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// indentSpaces serves the indentation runs indent writes.
var indentSpaces = strings.Repeat(" ", 64)

// indent appends src, compact JSON as encoding/json renders it, to dst
// laid out exactly as json.Indent(dst, src, "", " ") would were src
// nested depth levels deep: a newline and one space per level after
// every opening bracket, comma and before every closing bracket, a
// space after every colon, and empty objects and arrays kept as {} and
// []. src may be a run of a larger document — its brackets need not
// balance — as long as it starts and ends outside a string, between
// tokens. Bytes inside strings are copied as they are, runs at a time.
func indent(dst, src []byte, depth int) []byte {
	start := 0
	open, inString := false, false
	newline := func(upTo int) {
		dst = append(dst, src[start:upTo]...)
		start = upTo
		dst = append(dst, '\n')
		for n := depth; n > 0; n -= len(indentSpaces) {
			dst = append(dst, indentSpaces[:min(n, len(indentSpaces))]...)
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
			dst = append(dst, src[start:i+1]...)
			dst = append(dst, ' ')
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
	return append(dst, src[start:]...)
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

// RunOptions configures a study's execution; it is
// dist.CampaignOptions, the options of the campaign runner every kind
// runs on. The zero value is a serial, checkpoint-free run. A study
// collects when Collect, Breaker or CellTimeout is set: failed cells
// land in Dataset.Dropped instead of aborting it. Dist is refused:
// a distributed study runs through core's RunWorkSpec, which has the
// descriptor workers rebuild it from.
type RunOptions = dist.CampaignOptions

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
	CellTimeoutMS int64  `json:"cell_timeout_ms,omitempty"`
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

// cellWork holds the campaign's work orders: one per cell, in spec
// order, found by cell key through index. A map of tuningCell values
// would allocate every slot, the value being over the map's inline
// limit.
type cellWork struct {
	cells []tuningCell
	index map[string]int32
}

// get returns the work order of the cell under key.
func (w *cellWork) get(key string) (*tuningCell, bool) {
	i, ok := w.index[key]
	if !ok {
		return nil, false
	}
	return &w.cells[i], true
}

// buildCampaign expands the config into the scheduler spec and its
// work orders. Cell order is the dataset's record order.
func buildCampaign(cfg *Config, tests []*litmus.Test) (sched.Spec, *cellWork, error) {
	devices := cfg.devices()
	for _, devName := range devices {
		if _, ok := gpu.ProfileByName(devName); !ok {
			return sched.Spec{}, nil, fmt.Errorf("tuning: unknown device %q", devName)
		}
	}
	families := Families()
	famEnvs := make([][]harness.Params, len(families))
	n := 0
	for fi, fam := range families {
		famEnvs[fi] = environments(fam, cfg)
		n += len(famEnvs[fi]) * len(devices) * len(tests)
	}
	spec := sched.Spec{Name: "tune", Seed: cfg.Seed, Cells: make([]sched.Cell, 0, n)}
	work := &cellWork{cells: make([]tuningCell, 0, n), index: make(map[string]int32, n)}
	for fi, fam := range families {
		iters := cfg.iterations(fam)
		for ei, env := range famEnvs[fi] {
			envID := fmt.Sprintf("%s-%03d", fam, ei)
			for _, devName := range devices {
				for _, test := range tests {
					key := envID + "/" + devName + "/" + test.Name
					spec.Cells = append(spec.Cells, sched.Cell{Key: key, Device: devName})
					work.index[key] = int32(len(work.cells))
					work.cells = append(work.cells, tuningCell{
						family: fam, envID: envID, env: env,
						device: devName, test: test, iters: iters,
					})
				}
			}
		}
	}
	return spec, work, nil
}

// Measurement is what executing one cell computes: the measured
// fields of its Record. The rest of the Record is a function of the
// cell key, so the scheduler carries, checkpoints and caches only
// this, and Campaign.Dataset joins the two. The JSON names are Record's,
// so a checkpointed Record decodes as its measurement.
type Measurement struct {
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
func measure(ctx context.Context, w *tuningCell, runner *harness.Runner, res *harness.Result, rng *xrand.Rand) (Measurement, error) {
	if err := runner.RunInto(ctx, res, w.test, w.iters, rng); err != nil {
		return Measurement{}, fmt.Errorf("tuning: %s/%s/%s: %w", w.envID, w.device, w.test.Name, err)
	}
	return Measurement{
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
func (w *tuningCell) record(m Measurement) Record {
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
func newWorkerExec(work *cellWork, faults *gpu.FaultModel) func() sched.Exec[Measurement] {
	var fm gpu.FaultModel
	if faults != nil {
		fm = *faults
	}
	return func() sched.Exec[Measurement] {
		warm := harness.WarmRunner[runnerKey]{New: newRunner}
		var res harness.Result
		return func(ctx context.Context, c sched.Cell, rng *xrand.Rand) (Measurement, error) {
			w, ok := work.get(c.Key)
			if !ok {
				return Measurement{}, fmt.Errorf("tuning: unknown cell %q", c.Key)
			}
			runner, err := warm.Get(runnerKey{device: w.device, env: w.env}, fm)
			if err != nil {
				return Measurement{}, err
			}
			return measure(ctx, w, runner, &res, rng)
		}
	}
}

// Campaign is a tuning study planned for execution: its scheduler
// spec, its measurement exec, its cache salt and the assembly of a
// settled report into its dataset. Run executes it on the shared
// campaign runner (dist.RunCampaign); core runs the same pieces
// locally or across worker processes, so a distributed study's dataset
// is byte-identical to a local one.
type Campaign struct {
	// Spec is the study's scheduler spec. Its Manifest identifies the
	// cell grid: the serve subsystem derives idempotent job IDs from it,
	// and it is the manifest the run's checkpoint carries.
	Spec sched.Spec
	cfg  Config
	work *cellWork
}

// PlanCampaign expands the config and tests into the study's campaign
// without running anything.
func PlanCampaign(cfg Config, tests []*litmus.Test) (*Campaign, error) {
	if len(tests) == 0 {
		return nil, fmt.Errorf("tuning: no tests")
	}
	spec, work, err := buildCampaign(&cfg, tests)
	if err != nil {
		return nil, err
	}
	return &Campaign{Spec: spec, cfg: cfg, work: work}, nil
}

// RunCampaign is RunCampaignCtx under context.Background().
func RunCampaign(cfg Config, tests []*litmus.Test, opts RunOptions) (*Dataset, error) {
	return RunCampaignCtx(context.Background(), cfg, tests, opts)
}

// RunCampaignCtx plans the tuning study and runs it (see Campaign.Run).
func RunCampaignCtx(ctx context.Context, cfg Config, tests []*litmus.Test, opts RunOptions) (*Dataset, error) {
	c, err := PlanCampaign(cfg, tests)
	if err != nil {
		return nil, err
	}
	return c.Run(ctx, opts)
}

// Exec returns the study's per-worker measurement exec factory (see
// sched.Options.NewWorkerExec). Each worker gets private warm scratch —
// a runner and a Result reused across that worker's cells — so the
// steady-state campaign loop stops allocating. Cell randomness derives
// purely from (seed, cell key), so which worker's scratch a cell lands
// on cannot change its measurement.
func (c *Campaign) Exec() func() sched.Exec[Measurement] {
	return newWorkerExec(c.work, c.cfg.Faults)
}

// CacheSalt derives the study's result-cache salt under a retry
// policy: the cached value's layout, the full Config and the policy, so
// two runs share entries exactly when they would compute identical
// measurements, and a warm re-run skips the simulation entirely and
// still emits a byte-identical dataset. It is the counterpart of
// core.WorkSpec.CacheSalt for the tuning study.
func (c *Campaign) CacheSalt(retries int, cellTimeout time.Duration) (string, error) {
	raw, err := json.Marshal(cacheSaltPayload{
		Payload:       cachePayload,
		Config:        c.cfg,
		Retries:       retries,
		CellTimeoutMS: cellTimeout.Milliseconds(),
	})
	if err != nil {
		return "", fmt.Errorf("tuning: encode cache salt: %w", err)
	}
	return string(raw), nil
}

// Run executes the tuning study as a scheduled campaign: every
// (environment, device, test) cell derives its RNG stream purely from
// the config seed and the cell's identity, so any worker count — and
// any interleaving of checkpoint resume — produces a bit-identical
// dataset.
//
// Cancelling ctx drains the campaign and returns the partial dataset
// with Interrupted set (and a nil error): completed cells are in
// Records, failures in Dropped, and the abandoned remainder is pending
// in the checkpoint, so a resumed run finishes the dataset
// byte-identical to an uninterrupted one.
func (c *Campaign) Run(ctx context.Context, opts RunOptions) (*Dataset, error) {
	salt, err := c.CacheSalt(opts.Retries, opts.CellTimeout)
	if err != nil {
		return nil, err
	}
	rep, err := dist.RunCampaign(ctx, c.Spec, c.Exec(), opts, func(m Measurement) int { return m.Instances }, nil, salt)
	interrupted := errors.Is(err, sched.ErrInterrupted)
	if err != nil && !interrupted {
		return nil, err
	}
	return c.Dataset(rep, interrupted), nil
}

// Dataset assembles a settled report of the campaign — a local run's
// or a coordinator's — into its dataset, records in spec order.
// interrupted marks a drained run, whose abandoned cells are pending.
func (c *Campaign) Dataset(rep *sched.Report[Measurement], interrupted bool) *Dataset {
	ds := &Dataset{Config: c.cfg, Interrupted: interrupted,
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
			w, _ := c.work.get(cr.Cell.Key)
			ds.Records = append(ds.Records, w.record(cr.Value))
		}
	}
	return ds
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
