package core

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/sched"
	"repro/internal/wgsl"
)

// WorkSpec describes one whole campaign: what `mcmutants campaign`
// flags, a serve job and a distributed worker's descriptor
// (dist.WorkInfo.Descriptor) all reduce to. RunWorkSpec runs it,
// PlanWorkSpec plans it, and DistWork rebuilds its cells on a worker;
// the three share one expansion, so the cell grid, retry policy,
// descriptor and cache salt are identical on every surface.
// Everything in it feeds the split-seed determinism contract, so a
// leased cell's result is byte-identical to a local run's.
type WorkSpec struct {
	// Kind is the campaign kind: "conformance" or "evaluate".
	Kind string `json:"kind"`
	// Devices are the platform device short names. Conformance runs one
	// fleet campaign over all of them; evaluate plans one campaign per
	// device.
	Devices []string `json:"devices"`
	// Envs are environment preset names (see EnvByName); conformance
	// uses the first, evaluate crosses all of them with the mutants.
	Envs []string `json:"envs"`
	// Iters is kernel launches per cell; Seed the campaign seed.
	Iters int    `json:"iters"`
	Seed  uint64 `json:"seed"`
	// FenceBug injects the fence-dropping driver on every platform.
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
}

// DurationMS converts a duration to WorkSpec milliseconds, rounding up
// so that a positive duration never becomes 0 (unbounded).
func DurationMS(d time.Duration) int64 {
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

// Validate checks the spec without running anything: a known kind, a
// non-empty list of known devices, a non-empty list of known
// environment presets, and positive iterations.
func (ws WorkSpec) Validate() error {
	switch ws.Kind {
	case "conformance", "evaluate":
	default:
		return fmt.Errorf("unknown campaign kind %q (conformance, evaluate)", ws.Kind)
	}
	if len(ws.Devices) == 0 {
		return fmt.Errorf("no devices")
	}
	for _, d := range ws.Devices {
		if _, ok := gpu.ProfileByName(d); !ok {
			return fmt.Errorf("unknown device %q", d)
		}
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
	// fleet campaign. It suffixes the checkpoint path and dist name.
	device string
	spec   sched.Spec
	// ranges builds a distributed worker's range runner.
	ranges func(dist.SchedRunnerOptions) dist.RunRange
	// run executes the campaign, adds its result to art, and returns
	// how many cells an interruption left pending.
	run func(ctx context.Context, o CampaignOptions, desc json.RawMessage, art *CampaignArtifact) (int, error)
}

// name suffixes base (a dist name or checkpoint path) with the
// campaign's device, if it has one.
func (c workCampaign) name(base string) string {
	if c.device == "" {
		return base
	}
	return base + "." + c.device
}

// expand validates ws and turns it into its campaigns: one fleet
// campaign for conformance, one single-device campaign per device for
// evaluate. It is the only place a WorkSpec's kind is dispatched.
func (st *Study) expand(ws WorkSpec) ([]workCampaign, error) {
	if err := ws.Validate(); err != nil {
		return nil, err
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
			run: func(ctx context.Context, o CampaignOptions, desc json.RawMessage, art *CampaignArtifact) (int, error) {
				reports, pending, err := st.runConformance(ctx, spec, newExec, platforms, o, desc)
				art.Conformance = reports
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
			run: func(ctx context.Context, o CampaignOptions, desc json.RawMessage, art *CampaignArtifact) (int, error) {
				score, pending, err := st.runEvaluate(ctx, spec, newExec, o, desc)
				if score != nil {
					art.Evaluate = append(art.Evaluate, EvaluateEntry{Device: p.Device, Score: score})
				}
				return pending, err
			},
		})
	}
	return out, nil
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

// WorkResult is what RunWorkSpec returns: the campaign artifact and
// the verdict folded from it.
type WorkResult struct {
	// Artifact is the campaign report; partial when Interrupted.
	Artifact *CampaignArtifact
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

// RunWorkSpec runs the campaign ws describes, locally or — with
// opts.Dist — through worker processes, and returns its artifact and
// verdict. The spec supplies everything that shapes results: the
// platforms, environments, retry policy (opts.Retries, Backoff and
// CellTimeout are overridden), and the descriptor and cache salt.
// Evaluate runs one campaign per device, sequentially, with the
// checkpoint path and dist name suffixed ".<device>"; opts.OnProgress
// sees one cumulative stream named after the kind. A spec with a cell
// timeout always collects, so an expired cell fails alone. On
// interruption the partial artifact is returned with Interrupted set
// and a nil error.
func (st *Study) RunWorkSpec(ctx context.Context, ws WorkSpec, opts CampaignOptions) (*WorkResult, error) {
	camps, err := st.expand(ws)
	if err != nil {
		return nil, err
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
	res := &WorkResult{Artifact: &CampaignArtifact{Kind: ws.Kind}}
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
		pending, err := c.run(ctx, o, desc, res.Artifact)
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
	a := r.Artifact
	for _, rep := range a.Conformance {
		for _, f := range rep.Failed() {
			r.Failed++
			if f.Quarantined {
				r.Quarantined++
			}
		}
		if rep.StorageDegraded {
			r.StorageErr = rep.StorageErr
		}
	}
	for _, e := range a.Evaluate {
		for _, f := range e.Score.Failures {
			r.Failed++
			if f.Quarantined {
				r.Quarantined++
			}
		}
		if e.Score.StorageDegraded {
			r.StorageErr = e.Score.StorageErr
		}
	}
	a.StorageDegraded = r.StorageErr != ""
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
