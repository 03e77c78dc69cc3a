package core

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
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
	// Kind is the campaign kind: "conformance", "evaluate", "tune" or
	// "correlate" (the Table 4 study).
	Kind string `json:"kind"`
	// Devices are the platform device short names, each at most once;
	// empty means the Table 3 fleet. Conformance and evaluate run one
	// fleet campaign over them, and tune one study whose dataset
	// records the list as given. A correlate spec must leave them empty:
	// its bug cases fix their own platforms.
	Devices []string `json:"devices"`
	// Envs are environment preset names (see EnvByName); conformance
	// uses the first, evaluate crosses all of them with the mutants.
	// Tune and correlate specs must leave them empty.
	Envs []string `json:"envs"`
	// Iters is kernel launches per cell (zero for tune); Seed the
	// campaign seed.
	Iters int    `json:"iters"`
	Seed  uint64 `json:"seed"`
	// FenceBug injects the fence-dropping driver on every conformance or
	// evaluate platform; tune and correlate specs must leave it false.
	FenceBug bool `json:"fence_bug,omitempty"`
	// Faults, when non-nil, is the device-stack fault model every
	// platform runs under (fault streams are seeded, so workers inject
	// identical faults).
	Faults *gpu.FaultModel `json:"faults,omitempty"`
	// Retries and CellTimeoutMS are the per-cell retry policy; a retry
	// runs at once, on its attempt's own split-seed stream. They are
	// part of the byte-identity contract — attempt counts and timeout
	// failures appear in reports — so workers must run the submitting
	// side's values, not their own defaults. A cell timeout makes the
	// campaign collect: expiry fails that cell only.
	Retries       int   `json:"retries,omitempty"`
	CellTimeoutMS int64 `json:"cell_timeout_ms,omitempty"`
	// TuneEnvs, SiteIters and PTEIters size a tune study: random
	// environments per tuned family and kernel launches per SITE and
	// PTE cell. PaperScale runs the paper's sizes (tuning.PaperConfig)
	// instead, keeping only the seed and devices. A correlate spec
	// takes TuneEnvs as its count of random environments and leaves the
	// other three zero; conformance and evaluate specs leave all four
	// zero.
	TuneEnvs   int  `json:"tune_envs,omitempty"`
	SiteIters  int  `json:"site_iters,omitempty"`
	PTEIters   int  `json:"pte_iters,omitempty"`
	PaperScale bool `json:"paper_scale,omitempty"`
}

// KindDefaults returns the fields a campaign kind takes when a caller
// leaves them zero: the seed and, for conformance and evaluate, the
// Table 3 fleet, the environment presets and iterations, for tune the
// study sizes, or for correlate its environments and iterations. Tune
// and correlate specs have no default devices: a tune dataset records
// the device list as given, and tuning runs the fleet when it is
// empty. The CLI's flag defaults, serve's job normalization and the
// expansion of every spec read it.
func KindDefaults(kind string) WorkSpec {
	switch kind {
	case "tune":
		return WorkSpec{Kind: kind, Seed: 2023, TuneEnvs: 12, SiteIters: 50, PTEIters: 8}
	case "correlate":
		return WorkSpec{Kind: kind, Seed: 2023, TuneEnvs: 24, Iters: 4}
	}
	var fleet []string
	for _, p := range gpu.Profiles() {
		fleet = append(fleet, p.ShortName)
	}
	return WorkSpec{Kind: kind, Devices: fleet, Seed: 1, Envs: []string{"pte", "site"}, Iters: 10}
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
// known devices named once each, a non-negative retry policy, no field
// the kind ignores, and then per kind either positive tune or
// correlate sizes or a non-empty list of known environment presets and
// positive iterations. An ignored field would still enter the
// descriptor, cache salt and job ID, so two specs running the same
// study would not be the same work.
func (ws WorkSpec) Validate() error {
	switch ws.Kind {
	case "conformance", "evaluate", "tune", "correlate":
	default:
		return fmt.Errorf("unknown campaign kind %q (conformance, evaluate, tune, correlate)", ws.Kind)
	}
	for i, d := range ws.Devices {
		if _, ok := gpu.ProfileByName(d); !ok {
			return fmt.Errorf("unknown device %q", d)
		}
		if slices.Contains(ws.Devices[:i], d) {
			return fmt.Errorf("device %q listed twice", d)
		}
	}
	if ws.Retries < 0 || ws.CellTimeoutMS < 0 {
		return fmt.Errorf("retries and cell timeout must be non-negative")
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
	if ws.Kind == "correlate" {
		if len(ws.Devices) > 0 || len(ws.Envs) > 0 || ws.FenceBug || ws.SiteIters != 0 || ws.PTEIters != 0 || ws.PaperScale {
			return fmt.Errorf("a correlate spec takes no devices, envs, fence bug, site iters, pte iters or paper scale (its bug cases fix their platforms)")
		}
		if ws.TuneEnvs <= 0 || ws.Iters <= 0 {
			return fmt.Errorf("correlate sizes must be positive (envs %d, iters %d)", ws.TuneEnvs, ws.Iters)
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

// policy returns the spec's per-cell retry policy.
func (ws WorkSpec) policy() (retries int, cellTimeout time.Duration) {
	return ws.Retries, time.Duration(ws.CellTimeoutMS) * time.Millisecond
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

// workCampaign is the one scheduler campaign a WorkSpec expands to.
type workCampaign struct {
	// ws is the spec with the kind's default devices filled in; the
	// campaign's descriptor derives from it.
	ws   WorkSpec
	spec sched.Spec
	// salt derives the campaign's result-cache salt.
	salt func() (string, error)
	// ranges builds a distributed worker's range runner.
	ranges func(o dist.SchedRunnerOptions) dist.RunRange
	// run executes the campaign on dist.RunCampaign and returns its
	// artifact and verdict; an interruption returns the partial result
	// with Interrupted set and a nil error.
	run func(ctx context.Context, o CampaignOptions, desc json.RawMessage, salt string) (*WorkResult, error)
}

// newWorkCampaign builds a kind's campaign from its scheduler spec, its
// per-worker exec factory (shared verbatim by local runs and
// distributed workers), its cache salt and assemble, which turns a
// settled report into the kind's artifact, partial when interrupted.
// This is the one place a campaign runs and the one place its verdict
// is read: a cell failed when it has an error and was not interrupted,
// and the pending and storage verdicts are the report's, for every
// kind alike.
func newWorkCampaign[R any](ws WorkSpec, spec sched.Spec, newExec func() sched.Exec[R], instances func(R) int,
	salt func() (string, error), assemble func(rep *sched.Report[R], interrupted bool) (*WorkResult, error)) *workCampaign {
	return &workCampaign{
		ws:     ws,
		spec:   spec,
		salt:   salt,
		ranges: func(o dist.SchedRunnerOptions) dist.RunRange { return dist.SchedRunner(spec, newExec, o) },
		run: func(ctx context.Context, o CampaignOptions, desc json.RawMessage, salt string) (*WorkResult, error) {
			rep, err := dist.RunCampaign(ctx, spec, newExec, o, instances, desc, salt)
			interrupted := errors.Is(err, sched.ErrInterrupted)
			if err != nil && !interrupted {
				return nil, err
			}
			res, err := assemble(rep, interrupted)
			if err != nil {
				return nil, err
			}
			res.Interrupted, res.Pending = interrupted, rep.Interrupted
			res.StorageErr = rep.StorageErr
			if res.Artifact != nil {
				res.Artifact.StorageDegraded = rep.StorageDegraded
			}
			for _, r := range rep.Results {
				if r.Err != nil && !r.Interrupted {
					res.Failed++
					if r.Quarantined {
						res.Quarantined++
					}
				}
			}
			return res, nil
		},
	}
}

// expand validates ws and turns it into its one campaign: a fleet
// campaign for conformance and evaluate, the tuning study for tune, the
// bug-case campaign for correlate. It is the only place a WorkSpec's
// kind is dispatched.
func (st *Study) expand(ws WorkSpec) (*workCampaign, error) {
	if err := ws.Validate(); err != nil {
		return nil, err
	}
	if len(ws.Devices) == 0 {
		ws.Devices = KindDefaults(ws.Kind).Devices
	}
	switch ws.Kind {
	case "tune":
		return st.expandTune(ws)
	case "correlate":
		return st.expandCorrelate(ws)
	}
	envs, err := ws.envParams()
	if err != nil {
		return nil, err
	}
	if ws.Kind == "conformance" {
		return st.conformanceWork(ws, ws.platforms(), envs[0])
	}
	return st.evaluateWork(ws, ws.platforms(), envs)
}

// expandTune turns a tune spec into its tuning study, salted as tuning
// salts it under the spec's retry policy, so the CLI, serve, workers
// and tuning.RunCampaignCtx share cache entries. Local or distributed,
// the runner's report assembles into the same dataset.
func (st *Study) expandTune(ws WorkSpec) (*workCampaign, error) {
	camp, err := tuning.PlanCampaign(ws.tuneConfig(), st.Suite.Mutants)
	if err != nil {
		return nil, err
	}
	return newWorkCampaign(ws, camp.Spec, camp.Exec(), func(m tuning.Measurement) int { return m.Instances },
		func() (string, error) { return camp.CacheSalt(ws.policy()) },
		func(rep *sched.Report[tuning.Measurement], interrupted bool) (*WorkResult, error) {
			return &WorkResult{Dataset: camp.Dataset(rep, interrupted)}, nil
		}), nil
}

// PlanWorkSpec validates ws and returns its campaign's scheduler
// manifest and planned cell count without running anything. The serve
// subsystem derives idempotent job IDs from them.
func (st *Study) PlanWorkSpec(ws WorkSpec) (manifest string, cells int, err error) {
	c, err := st.expand(ws)
	if err != nil {
		return "", 0, err
	}
	return c.spec.Manifest(), len(c.spec.Cells), nil
}

// WorkResult is what RunWorkSpec returns: the artifact the spec's kind
// produced and the verdict read from the campaign's report.
type WorkResult struct {
	// Artifact is the conformance, evaluate or correlate report, Dataset
	// the tune study's dataset; the other is nil. Either is partial when
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
// dataset for tune, the report for every other kind.
func (r *WorkResult) Encode(w io.Writer) error {
	if r.Dataset != nil {
		return r.Dataset.Save(w)
	}
	return r.Artifact.Encode(w)
}

// RunWorkSpec runs the campaign ws describes, locally or — with
// opts.Dist — through worker processes, and returns its artifact and
// verdict. The spec supplies everything that shapes results: the
// platforms, environments or study sizes, retry policy (opts.Retries
// and CellTimeout are overridden), and the descriptor and
// cache salt. Every kind runs as one campaign, with one checkpoint at
// opts.CheckpointPath and one coordinator named opts.Dist.Name (the
// kind when empty). A spec with a cell timeout always collects, so an
// expired cell fails alone. On interruption the partial artifact is
// returned with Interrupted set and a nil error.
func (st *Study) RunWorkSpec(ctx context.Context, ws WorkSpec, opts CampaignOptions) (*WorkResult, error) {
	c, err := st.expand(ws)
	if err != nil {
		return nil, err
	}
	opts.Retries, opts.CellTimeout = ws.policy()
	var desc json.RawMessage
	if opts.Dist != nil {
		if desc, err = c.ws.Descriptor(); err != nil {
			return nil, err
		}
		d := *opts.Dist
		d.Name = cmp.Or(d.Name, ws.Kind)
		opts.Dist = &d
	}
	var salt string
	if opts.Cache != nil {
		if salt, err = c.salt(); err != nil {
			return nil, err
		}
	}
	return c.run(ctx, opts, desc, salt)
}
