package core

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/sched"
	"repro/internal/tuning"
	"repro/internal/wgsl"
)

// WorkSpec describes one whole campaign: what the `mcmutants campaign`
// and `tune` flags, a serve job and a distributed worker's descriptor
// (dist.WorkInfo.Descriptor) all reduce to. RunWorkSpec runs it,
// PlanWorkSpec plans it, and DistWork rebuilds its cells on a worker;
// the three share one expansion, so the cell grid, retry policy,
// descriptor and cache salt are identical on every surface.
// Everything in it feeds the split-seed determinism contract, so a
// leased cell's result is byte-identical to a local run's.
type WorkSpec struct {
	// Kind is the campaign kind: "conformance", "evaluate" or "tune".
	Kind string `json:"kind"`
	// Devices are the platform device short names; empty means the
	// Table 3 fleet. Conformance runs one fleet campaign over all of
	// them, evaluate one campaign per device, and tune one study whose
	// dataset records the list as given.
	Devices []string `json:"devices"`
	// Envs are environment preset names (see EnvByName); conformance
	// uses the first, evaluate crosses all of them with the mutants.
	// A tune spec must leave them empty.
	Envs []string `json:"envs"`
	// Iters is kernel launches per cell (zero for tune); Seed the
	// campaign seed.
	Iters int    `json:"iters"`
	Seed  uint64 `json:"seed"`
	// FenceBug injects the fence-dropping driver on every conformance or
	// evaluate platform; a tune spec must leave it false.
	FenceBug bool `json:"fence_bug,omitempty"`
	// Faults, when non-nil, is the device-stack fault model every
	// platform runs under (fault streams are seeded, so workers inject
	// identical faults).
	Faults *gpu.FaultModel `json:"faults,omitempty"`
	// Retries, BackoffMS and CellTimeoutMS are the per-cell retry
	// policy. They are part of the byte-identity contract — attempt
	// counts and timeout failures appear in reports — so workers must
	// run the submitting side's values, not their own defaults. A cell
	// timeout makes the campaign collect: expiry fails that cell only.
	Retries       int   `json:"retries,omitempty"`
	BackoffMS     int64 `json:"backoff_ms,omitempty"`
	CellTimeoutMS int64 `json:"cell_timeout_ms,omitempty"`
	// TuneEnvs, SiteIters and PTEIters size a tune study: random
	// environments per tuned family and kernel launches per SITE and
	// PTE cell. PaperScale runs the paper's sizes (tuning.PaperConfig)
	// instead, keeping only the seed and devices. Conformance and
	// evaluate specs must leave all four zero.
	TuneEnvs   int  `json:"tune_envs,omitempty"`
	SiteIters  int  `json:"site_iters,omitempty"`
	PTEIters   int  `json:"pte_iters,omitempty"`
	PaperScale bool `json:"paper_scale,omitempty"`
}

// KindDefaults returns the fields a campaign kind takes when a caller
// leaves them zero: the seed and, for conformance and evaluate, the
// environment presets and iterations, or, for tune, the study sizes.
// The CLI's flag defaults and serve's job normalization both read it.
func KindDefaults(kind string) WorkSpec {
	if kind == "tune" {
		return WorkSpec{Kind: kind, Seed: 2023, TuneEnvs: 12, SiteIters: 50, PTEIters: 8}
	}
	return WorkSpec{Kind: kind, Seed: 1, Envs: []string{"pte", "site"}, Iters: 10}
}

// DurationMS converts a duration to WorkSpec milliseconds, rounding
// away from zero: a positive duration never becomes 0 (unbounded), and
// a negative one stays negative for Validate to reject.
func DurationMS(d time.Duration) int64 {
	if d < 0 {
		return -DurationMS(-d)
	}
	return int64((d + time.Millisecond - 1) / time.Millisecond)
}

// Descriptor returns the spec serialized for dist.WorkInfo.
func (ws WorkSpec) Descriptor() (json.RawMessage, error) {
	raw, err := json.Marshal(ws)
	if err != nil {
		return nil, fmt.Errorf("core: encode work spec: %w", err)
	}
	return raw, nil
}

// CacheSalt returns the result-cache salt for the campaign this work
// spec describes: the canonical descriptor JSON. Every workload
// parameter outside the scheduler spec — iterations, environments,
// fault model, driver bug, retry policy — is in it, so two campaigns
// share cache entries exactly when they would compute identical
// results.
func (ws WorkSpec) CacheSalt() (string, error) {
	raw, err := ws.Descriptor()
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

// Validate checks the spec without running anything: a known kind,
// known devices, a non-negative retry policy, no field the kind
// ignores, and then per kind either positive tune sizes or a non-empty
// list of known environment presets and positive iterations. An
// ignored field would still enter the descriptor, cache salt and job
// ID, so two specs running the same study would not be the same work.
func (ws WorkSpec) Validate() error {
	switch ws.Kind {
	case "conformance", "evaluate", "tune":
	default:
		return fmt.Errorf("unknown campaign kind %q (conformance, evaluate, tune)", ws.Kind)
	}
	for _, d := range ws.Devices {
		if _, ok := gpu.ProfileByName(d); !ok {
			return fmt.Errorf("unknown device %q", d)
		}
	}
	if ws.Retries < 0 || ws.BackoffMS < 0 || ws.CellTimeoutMS < 0 {
		return fmt.Errorf("retries, backoff and cell timeout must be non-negative")
	}
	if ws.Kind == "tune" {
		if len(ws.Envs) > 0 || ws.Iters != 0 || ws.FenceBug {
			return fmt.Errorf("a tune spec takes no envs, iters or fence bug (its sizes are tune envs, site iters and pte iters)")
		}
		if ws.TuneEnvs <= 0 || ws.SiteIters <= 0 || ws.PTEIters <= 0 {
			return fmt.Errorf("tune sizes must be positive (envs %d, site iters %d, pte iters %d)",
				ws.TuneEnvs, ws.SiteIters, ws.PTEIters)
		}
		return nil
	}
	if ws.TuneEnvs != 0 || ws.SiteIters != 0 || ws.PTEIters != 0 || ws.PaperScale {
		return fmt.Errorf("a %s spec takes no tune envs, site iters, pte iters or paper scale", ws.Kind)
	}
	if _, err := ws.envParams(); err != nil {
		return err
	}
	if ws.Iters <= 0 {
		return fmt.Errorf("iters must be positive, got %d", ws.Iters)
	}
	return nil
}

// policy returns the spec's per-cell retry policy as durations.
func (ws WorkSpec) policy() (retries int, backoff, cellTimeout time.Duration) {
	return ws.Retries, time.Duration(ws.BackoffMS) * time.Millisecond,
		time.Duration(ws.CellTimeoutMS) * time.Millisecond
}

// tuneConfig is the tuning study a tune spec runs. The fault model is
// recorded only when it injects faults or bounds the watchdog, so a
// model that does neither leaves the dataset's bytes alone.
func (ws WorkSpec) tuneConfig() tuning.Config {
	cfg := tuning.SmallConfig()
	cfg.Environments, cfg.SITEIterations, cfg.PTEIterations = ws.TuneEnvs, ws.SiteIters, ws.PTEIters
	if ws.PaperScale {
		cfg = tuning.PaperConfig()
	}
	cfg.Seed = ws.Seed
	cfg.Devices = ws.Devices
	if fm := ws.Faults; fm != nil && (fm.Enabled() || fm.WatchdogTicks > 0) {
		cfg.Faults = fm
	}
	return cfg
}

// platforms expands the device list into Platforms with the spec's
// driver and fault model applied.
func (ws WorkSpec) platforms() []Platform {
	out := make([]Platform, 0, len(ws.Devices))
	for _, d := range ws.Devices {
		p := Platform{Device: d}
		if ws.Faults != nil {
			p.Faults = *ws.Faults
		}
		if ws.FenceBug {
			p.Driver = wgsl.DriverFenceDropping
		}
		out = append(out, p)
	}
	return out
}

// envParams resolves the environment presets.
func (ws WorkSpec) envParams() ([]harness.Params, error) {
	if len(ws.Envs) == 0 {
		return nil, fmt.Errorf("no environments")
	}
	out := make([]harness.Params, 0, len(ws.Envs))
	for _, name := range ws.Envs {
		env, err := EnvByName(name, 16, 32)
		if err != nil {
			return nil, err
		}
		out = append(out, env)
	}
	return out, nil
}

// workCampaign is one scheduler campaign a WorkSpec expands to.
type workCampaign struct {
	// ws is the spec this campaign's descriptor and cache salt derive
	// from: the whole spec for conformance, a single-device copy for
	// evaluate.
	ws WorkSpec
	// device is the evaluate campaign's device; "" for the conformance
	// fleet campaign and the tune study. It suffixes the checkpoint path
	// and dist name.
	device string
	spec   sched.Spec
	// ranges builds a distributed worker's range runner; nil for tune,
	// which only runs locally.
	ranges func(dist.SchedRunnerOptions) dist.RunRange
	// run executes the campaign, adds its result to res, and returns
	// how many cells an interruption left pending (with an error
	// wrapping sched.ErrInterrupted).
	run func(ctx context.Context, o CampaignOptions, desc json.RawMessage, res *WorkResult) (int, error)
}

// name suffixes base (a dist name or checkpoint path) with the
// campaign's device, if it has one.
func (c workCampaign) name(base string) string {
	if c.device == "" {
		return base
	}
	return base + "." + c.device
}

// distributable rejects campaigns that have no range runner.
func distributable(camps []workCampaign) error {
	for _, c := range camps {
		if c.ranges == nil {
			return fmt.Errorf("core: %s campaigns cannot run distributed", c.spec.Name)
		}
	}
	return nil
}

// expand validates ws and turns it into its campaigns: one fleet
// campaign for conformance, one single-device campaign per device for
// evaluate, one tuning study for tune. It is the only place a
// WorkSpec's kind is dispatched.
func (st *Study) expand(ws WorkSpec) ([]workCampaign, error) {
	if err := ws.Validate(); err != nil {
		return nil, err
	}
	if ws.Kind == "tune" {
		return st.expandTune(ws)
	}
	if len(ws.Devices) == 0 {
		for _, p := range gpu.Profiles() {
			ws.Devices = append(ws.Devices, p.ShortName)
		}
	}
	envs, err := ws.envParams()
	if err != nil {
		return nil, err
	}
	platforms := ws.platforms()
	if ws.Kind == "conformance" {
		spec, work, err := st.fleetConformanceCampaign(platforms, ws.Seed)
		if err != nil {
			return nil, err
		}
		newExec := st.conformanceExec(envs[0], work, ws.Iters)
		return []workCampaign{{
			ws:     ws,
			spec:   spec,
			ranges: func(o dist.SchedRunnerOptions) dist.RunRange { return dist.SchedRunner(spec, newExec, o) },
			run: func(ctx context.Context, o CampaignOptions, desc json.RawMessage, res *WorkResult) (int, error) {
				reports, pending, err := st.runConformance(ctx, spec, newExec, platforms, o, desc)
				res.Artifact.Conformance = reports
				return pending, err
			},
		}}, nil
	}
	out := make([]workCampaign, 0, len(platforms))
	for _, p := range platforms {
		spec, work, err := st.evaluateCampaign(p, envs, ws.Seed)
		if err != nil {
			return nil, err
		}
		one := ws
		one.Devices = []string{p.Device}
		newExec := st.evaluateExec(p, work, ws.Iters)
		out = append(out, workCampaign{
			ws:     one,
			device: p.Device,
			spec:   spec,
			ranges: func(o dist.SchedRunnerOptions) dist.RunRange { return dist.SchedRunner(spec, newExec, o) },
			run: func(ctx context.Context, o CampaignOptions, desc json.RawMessage, res *WorkResult) (int, error) {
				score, pending, err := st.runEvaluate(ctx, spec, newExec, o, desc)
				if score != nil {
					res.Artifact.Evaluate = append(res.Artifact.Evaluate, EvaluateEntry{Device: p.Device, Score: score})
				}
				return pending, err
			},
		})
	}
	return out, nil
}

// expandTune turns a tune spec into its one tuning study, run by
// tuning.RunCampaignCtx under tuning's own cache salt and with the
// checkpoint path as given.
func (st *Study) expandTune(ws WorkSpec) ([]workCampaign, error) {
	cfg := ws.tuneConfig()
	spec, err := tuning.CampaignSpec(cfg, st.Suite.Mutants)
	if err != nil {
		return nil, err
	}
	return []workCampaign{{
		ws:   ws,
		spec: spec,
		run: func(ctx context.Context, o CampaignOptions, _ json.RawMessage, res *WorkResult) (int, error) {
			ds, err := tuning.RunCampaignCtx(ctx, cfg, st.Suite.Mutants, tuning.RunOptions{
				Workers:        o.Workers,
				CheckpointPath: o.CheckpointPath,
				Resume:         o.Resume,
				FsyncEvery:     o.FsyncEvery,
				FS:             o.FS,
				Progress:       o.Progress,
				OnProgress:     o.OnProgress,
				ProgressEvery:  o.ProgressEvery,
				Retries:        o.Retries,
				Backoff:        o.Backoff,
				CellTimeout:    o.CellTimeout,
				Breaker:        o.Breaker,
				Cache:          o.Cache,
			})
			if err != nil {
				return 0, err
			}
			res.Dataset = ds
			if ds.Interrupted {
				pending := len(spec.Cells) - len(ds.Records) - len(ds.Dropped)
				return pending, fmt.Errorf("core: tuning study interrupted: %w", sched.ErrInterrupted)
			}
			return 0, nil
		},
	}}, nil
}

// PlanWorkSpec validates ws and returns its manifest and planned cell
// count without running anything. The manifest is the campaign's
// scheduler manifest; for evaluate it is one "<device>/<manifest>"
// line per device campaign. The serve subsystem derives idempotent job
// IDs from it.
func (st *Study) PlanWorkSpec(ws WorkSpec) (manifest string, cells int, err error) {
	camps, err := st.expand(ws)
	if err != nil {
		return "", 0, err
	}
	var b strings.Builder
	for _, c := range camps {
		cells += len(c.spec.Cells)
		if c.device == "" {
			b.WriteString(c.spec.Manifest())
			continue
		}
		fmt.Fprintf(&b, "%s/%s\n", c.device, c.spec.Manifest())
	}
	return b.String(), cells, nil
}

// WorkResult is what RunWorkSpec returns: the artifact the spec's kind
// produced and the verdict folded from it.
type WorkResult struct {
	// Artifact is the conformance or evaluate report, Dataset the tune
	// study's dataset; the other is nil. Either is partial when
	// Interrupted.
	Artifact *CampaignArtifact
	Dataset  *tuning.Dataset
	// Failed counts cells that produced no data; Quarantined is how
	// many of them the circuit breaker skipped.
	Failed, Quarantined int
	// Pending counts cells an interruption left unrun; resuming from
	// the checkpoint runs them.
	Pending int
	// StorageErr is set when the checkpoint storage degraded and the
	// campaign finished in memory.
	StorageErr string
	// Interrupted is set when ctx ended the campaign before every cell
	// resolved.
	Interrupted bool
}

// Degraded reports a completed campaign that is not fully healthy:
// cells produced no data or the checkpoint storage degraded.
func (r *WorkResult) Degraded() bool { return r.Failed > 0 || r.StorageErr != "" }

// Encode writes the result's artifact in its canonical rendering: the
// report for conformance and evaluate, the dataset for tune.
func (r *WorkResult) Encode(w io.Writer) error {
	if r.Dataset != nil {
		return r.Dataset.Save(w)
	}
	return r.Artifact.Encode(w)
}

// RunWorkSpec runs the campaign ws describes, locally or — with
// opts.Dist — through worker processes, and returns its artifact and
// verdict. The spec supplies everything that shapes results: the
// platforms, environments or study sizes, retry policy (opts.Retries,
// Backoff and CellTimeout are overridden), and the descriptor and
// cache salt. Evaluate runs one campaign per device, sequentially, with
// the checkpoint path and dist name suffixed ".<device>"; opts.OnProgress
// sees one cumulative stream named after the kind. A spec with a cell
// timeout always collects, so an expired cell fails alone. Tune runs
// only locally. On interruption the partial artifact is returned with
// Interrupted set and a nil error.
func (st *Study) RunWorkSpec(ctx context.Context, ws WorkSpec, opts CampaignOptions) (*WorkResult, error) {
	camps, err := st.expand(ws)
	if err != nil {
		return nil, err
	}
	if opts.Dist != nil {
		if err := distributable(camps); err != nil {
			return nil, err
		}
	}
	opts.Retries, opts.Backoff, opts.CellTimeout = ws.policy()
	opts.Collect = opts.Collect || opts.CellTimeout > 0
	if opts.OnProgress != nil {
		fold := &progressFold{out: opts.OnProgress, campaigns: len(camps), base: sched.Progress{Campaign: ws.Kind}}
		for _, c := range camps {
			fold.base.Total += len(c.spec.Cells)
		}
		opts.OnProgress = fold.add
	}
	res := &WorkResult{}
	if ws.Kind != "tune" {
		res.Artifact = &CampaignArtifact{Kind: ws.Kind}
	}
	for i, c := range camps {
		o := opts
		var desc json.RawMessage
		if o.Dist != nil || o.Cache != nil {
			if desc, err = c.ws.Descriptor(); err != nil {
				return nil, err
			}
		}
		if o.Dist != nil {
			d := *o.Dist
			d.Name = c.name(cmp.Or(d.Name, ws.Kind))
			o.Dist = &d
		}
		if o.CheckpointPath != "" {
			o.CheckpointPath = c.name(o.CheckpointPath)
		}
		pending, err := c.run(ctx, o, desc, res)
		if errors.Is(err, sched.ErrInterrupted) {
			res.Interrupted = true
			res.Pending += pending
			for _, rest := range camps[i+1:] {
				res.Pending += len(rest.spec.Cells)
			}
			break
		}
		if err != nil {
			return nil, err
		}
	}
	res.tally()
	return res, nil
}

// tally folds the artifact's failed cells and storage verdicts into r.
func (r *WorkResult) tally() {
	if ds := r.Dataset; ds != nil {
		for _, d := range ds.Dropped {
			r.fail(d.Quarantined)
		}
		r.StorageErr = ds.StorageErr
		return
	}
	a := r.Artifact
	for _, rep := range a.Conformance {
		for _, f := range rep.Failed() {
			r.fail(f.Quarantined)
		}
		if rep.StorageDegraded {
			r.StorageErr = rep.StorageErr
		}
	}
	for _, e := range a.Evaluate {
		for _, f := range e.Score.Failures {
			r.fail(f.Quarantined)
		}
		if e.Score.StorageDegraded {
			r.StorageErr = e.Score.StorageErr
		}
	}
	a.StorageDegraded = r.StorageErr != ""
}

// fail counts one cell that produced no data.
func (r *WorkResult) fail(quarantined bool) {
	r.Failed++
	if quarantined {
		r.Quarantined++
	}
}

// progressFold folds the per-campaign snapshot streams of a WorkSpec
// (evaluate runs one campaign per device) into one cumulative stream.
// Campaigns run one after another and each delivers its snapshots
// serially, so no locking is needed. Final is set only on the last
// campaign's settlement.
type progressFold struct {
	out       func(sched.Progress)
	campaigns int

	finished int
	// base is the fold of every settled campaign; its Campaign and
	// Total name the whole spec.
	base sched.Progress
}

// add is the OnProgress hook every campaign of the spec reports to.
func (f *progressFold) add(p sched.Progress) {
	q := f.base
	q.Add(p)
	if p.Final {
		f.finished++
		f.base = q
	}
	q.Final = p.Final && f.finished == f.campaigns
	f.out(q)
}
