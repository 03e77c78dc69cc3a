package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/diskio"
	"repro/internal/harness"
)

// CampaignArtifact is the machine-readable report a campaign publishes:
// what `mcmutants campaign -out` writes and what the serve subsystem
// returns from GET /api/v1/jobs/{id}/report. Both render through
// Encode, so a job submitted to a server and the same spec run through
// the local CLI produce byte-identical artifacts — the property the
// loadgen example and the CI serve smoke assert with cmp.
type CampaignArtifact struct {
	Kind            string               `json:"kind"`
	Conformance     []*ConformanceReport `json:"conformance,omitempty"`
	Evaluate        []EvaluateEntry      `json:"evaluate,omitempty"`
	Correlation     []CorrelationRow     `json:"correlation,omitempty"`
	StorageDegraded bool                 `json:"storage_degraded,omitempty"`
}

// EvaluateEntry pairs a device with its environment-evaluation score in
// the campaign artifact.
type EvaluateEntry struct {
	Device string    `json:"device"`
	Score  *EnvScore `json:"score"`
}

// Encode writes the artifact's canonical rendering: two-space indented
// JSON, one trailing newline. Every producer must go through this
// method — byte identity across producers is part of the artifact's
// contract.
func (a *CampaignArtifact) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// WriteAtomic publishes the artifact at path with all-or-nothing
// visibility (write temp → fsync → rename → fsync dir). A nil fsys
// means the real filesystem.
func (a *CampaignArtifact) WriteAtomic(fsys diskio.FS, path string) error {
	if fsys == nil {
		fsys = diskio.OS{}
	}
	return diskio.WriteAtomic(fsys, path, a.Encode)
}

// EnvByName resolves a testing-environment preset by name: the tuned
// and baseline PTE/SITE environments the CLI flags and serve job specs
// share. wgs and wgSize size the PTE presets (testing workgroups and
// workgroup size).
func EnvByName(name string, wgs, wgSize int) (harness.Params, error) {
	switch name {
	case "pte":
		p := harness.PTEBaseline(wgs, wgSize)
		p.MaxWorkgroups = p.TestingWorkgroups + 4
		p.MemStressPct = 100
		p.MemStressIters = 16
		p.PreStressPct = 80
		p.PreStressIters = 4
		p.MemStride = 2
		p.MemLocOffset = 1
		return p, nil
	case "pte-baseline":
		return harness.PTEBaseline(wgs, wgSize), nil
	case "site":
		p := harness.SITEBaseline()
		p.MaxWorkgroups = 16
		p.MemStressPct = 100
		p.MemStressIters = 16
		p.PreStressPct = 100
		p.PreStressIters = 4
		p.MemStride = 2
		p.MemLocOffset = 1
		return p, nil
	case "site-baseline":
		return harness.SITEBaseline(), nil
	default:
		return harness.Params{}, fmt.Errorf("unknown environment %q (pte, pte-baseline, site, site-baseline)", name)
	}
}
