// Package wgsl models the WebGPU shading-language toolchain the paper
// tests through: litmus tests are rendered as WGSL compute shaders and
// lowered through platform backends (Metal, Vulkan/SPIR-V, HLSL) before
// they reach a device.
//
// Two facilities are provided:
//
//   - Shader source generation: EmitTestShader renders a litmus test as
//     the parallel testing shader of Sec. 4.1 — storage buffers, the
//     co-prime permutation id math, and the per-role atomic operations —
//     mirroring the shaders the paper's artifact generates.
//   - A lowering toolchain: Toolchain applies backend passes to kernel
//     programs. The Vulkan backend models SPIR-V memory semantics on
//     barriers; the defective driver version zeroes those semantics in
//     an intermediate representation, eliding the fences — the compiler
//     bug behind the MP-relacq discovery (Fig. 1b), which led to an AMD
//     driver fix and a WebGPU specification change.
package wgsl

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/gpu"
	"repro/internal/litmus"
)

// DriverVersion distinguishes conformant from defective drivers.
type DriverVersion int

const (
	// DriverConformant lowers fences faithfully.
	DriverConformant DriverVersion = iota
	// DriverFenceDropping reproduces the AMD Vulkan compiler defect:
	// release/acquire semantics are lost in an intermediate
	// representation, so barriers no longer order memory accesses.
	DriverFenceDropping
)

// String names the driver version.
func (v DriverVersion) String() string {
	if v == DriverFenceDropping {
		return "fence-dropping"
	}
	return "conformant"
}

// Toolchain lowers kernel programs for one backend and driver.
type Toolchain struct {
	Backend gpu.Backend
	Driver  DriverVersion
}

// NewToolchain builds the toolchain for a device profile with the given
// driver version.
func NewToolchain(p gpu.Profile, v DriverVersion) *Toolchain {
	return &Toolchain{Backend: p.Backend, Driver: v}
}

// Pass is one lowering stage over a kernel program.
type Pass interface {
	// Name identifies the pass in lowering logs.
	Name() string
	// Apply lowers the program in place and returns it or, when it
	// drops instructions, its prefix p[:k]; no pass inserts any, so
	// none allocates. The caller must own p.
	Apply(gpu.Program) gpu.Program
}

// Passes returns the backend's lowering pipeline in application order.
func (tc *Toolchain) Passes() []Pass {
	switch tc.Backend {
	case gpu.Vulkan:
		return []Pass{
			annotateBarrierSemantics{},
			spirvMemorySemantics{drop: tc.Driver == DriverFenceDropping},
			encodeFences{},
			foldRedundantFences{},
		}
	case gpu.Metal:
		return []Pass{
			mslThreadgroupLowering{},
			foldRedundantFences{},
		}
	default: // HLSL
		return []Pass{
			hlslDeviceMemoryBarrier{},
			foldRedundantFences{},
		}
	}
}

// Lower runs the pipeline over a copy of p and returns the result plus
// the pass names applied (for diagnostics). p itself is never mutated.
func (tc *Toolchain) Lower(p gpu.Program) (gpu.Program, []string) {
	passes := tc.Passes()
	names := make([]string, len(passes))
	out := slices.Clone(p)
	for i, pass := range passes {
		out = pass.Apply(out)
		names[i] = pass.Name()
	}
	return out, names
}

// LowerFunc adapts the toolchain to the harness's program hook. It
// resolves the pipeline once; the hook lowers in place (see Pass), so
// it must only be handed buffers the caller owns, like harness.Runner's.
func (tc *Toolchain) LowerFunc() func(gpu.Program) gpu.Program {
	passes := tc.Passes()
	return func(p gpu.Program) gpu.Program {
		for _, pass := range passes {
			p = pass.Apply(p)
		}
		return p
	}
}

// ---- intermediate fence encoding ----
//
// Backends stage fences through an annotated form: the Imm field of a
// fence instruction carries memory-semantics flags during lowering
// (mirroring SPIR-V's OpControlBarrier semantics operand). encodeFences
// turns annotated fences back into plain fences, dropping any whose
// semantics were erased.

const (
	semAcquireRelease = 0x8
	semStorageBuffer  = 0x40
)

// annotateBarrierSemantics tags each fence with the release/acquire +
// storage-class semantics WGSL's inter-workgroup model requires.
type annotateBarrierSemantics struct{}

func (annotateBarrierSemantics) Name() string { return "annotate-barrier-semantics" }

func (annotateBarrierSemantics) Apply(p gpu.Program) gpu.Program {
	for i := range p {
		if p[i].Op == gpu.OpFence {
			p[i].Imm = semAcquireRelease | semStorageBuffer
		}
	}
	return p
}

// spirvMemorySemantics models the SPIR-V consumer; the defective
// driver build zeroes the semantics operand while restructuring
// barriers in its intermediate representation.
type spirvMemorySemantics struct{ drop bool }

func (s spirvMemorySemantics) Name() string {
	if s.drop {
		return "spirv-memory-semantics(defective)"
	}
	return "spirv-memory-semantics"
}

func (s spirvMemorySemantics) Apply(p gpu.Program) gpu.Program {
	if !s.drop {
		return p
	}
	for i := range p {
		if p[i].Op == gpu.OpFence {
			p[i].Imm = 0 // semantics lost in the IR round-trip
		}
	}
	return p
}

// encodeFences materializes annotated fences: a fence without
// release/acquire semantics orders nothing and is removed.
type encodeFences struct{}

func (encodeFences) Name() string { return "encode-fences" }

func (encodeFences) Apply(p gpu.Program) gpu.Program {
	out := p[:0] // compacts in place: the write index never passes the read index
	for _, in := range p {
		if in.Op == gpu.OpFence {
			if in.Imm&semAcquireRelease == 0 {
				continue // elided: no ordering semantics survived
			}
			in.Imm = 0
		}
		out = append(out, in)
	}
	return out
}

// mslThreadgroupLowering is the Metal path: fences map directly onto
// threadgroup/device memory fences and survive unchanged.
type mslThreadgroupLowering struct{}

func (mslThreadgroupLowering) Name() string { return "msl-threadgroup-lowering" }

func (mslThreadgroupLowering) Apply(p gpu.Program) gpu.Program { return p }

// hlslDeviceMemoryBarrier is the Direct3D path: fences map onto
// DeviceMemoryBarrier and survive unchanged.
type hlslDeviceMemoryBarrier struct{}

func (hlslDeviceMemoryBarrier) Name() string { return "hlsl-device-memory-barrier" }

func (hlslDeviceMemoryBarrier) Apply(p gpu.Program) gpu.Program { return p }

// foldRedundantFences removes immediately repeated fences, a standard
// legal cleanup every backend performs.
type foldRedundantFences struct{}

func (foldRedundantFences) Name() string { return "fold-redundant-fences" }

func (foldRedundantFences) Apply(p gpu.Program) gpu.Program {
	out := p[:0] // compacts in place, like encodeFences
	for _, in := range p {
		if in.Op == gpu.OpFence && len(out) > 0 && out[len(out)-1].Op == gpu.OpFence {
			continue
		}
		out = append(out, in)
	}
	return out
}

// ---- WGSL source emission ----

// SourceOptions controls shader rendering.
type SourceOptions struct {
	// Parallel renders the PTE shader (permutation id math); otherwise
	// the single-instance shader is rendered.
	Parallel bool
	// WorkgroupSize is the @workgroup_size attribute value.
	WorkgroupSize int
}

// EmitTestShader renders the litmus test as a WGSL compute shader in
// the style of the paper's artifact. The output is for documentation
// and inspection; execution goes through the kernel IR.
func EmitTestShader(t *litmus.Test, opts SourceOptions) string {
	if opts.WorkgroupSize <= 0 {
		opts.WorkgroupSize = 256
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// %s — generated litmus shader", t.Name)
	if t.IsMutant {
		fmt.Fprintf(&b, " (mutant of %s, %s)", t.Base, t.Mutator)
	}
	b.WriteString("\n")
	b.WriteString("struct TestLocations { value: array<atomic<u32>> }\n")
	b.WriteString("struct ReadResults { value: array<u32> }\n")
	b.WriteString("struct TestParams { num_instances: u32, perm_p: u32, perm_q: u32, stride: u32, loc_offset: u32 }\n\n")
	b.WriteString("@group(0) @binding(0) var<storage, read_write> test_locations : TestLocations;\n")
	b.WriteString("@group(0) @binding(1) var<storage, read_write> read_results : ReadResults;\n")
	b.WriteString("@group(0) @binding(2) var<uniform> params : TestParams;\n\n")
	b.WriteString("fn permute(v : u32) -> u32 {\n")
	b.WriteString("  // co-prime modular permutation: no divergence, no simple v+1 pattern\n")
	b.WriteString("  return (v * params.perm_p + params.perm_q) % params.num_instances;\n}\n\n")
	fmt.Fprintf(&b, "@compute @workgroup_size(%d)\n", opts.WorkgroupSize)
	b.WriteString("fn main(@builtin(global_invocation_id) gid : vec3<u32>) {\n")
	if opts.Parallel {
		b.WriteString("  var inst = gid.x;\n")
	} else {
		b.WriteString("  let inst = 0u;\n  if (gid.x >= 1u) { return; }\n")
	}
	reg := 0
	for ti, th := range t.Threads {
		role := "thread"
		if th.Observer {
			role = "observer"
		}
		fmt.Fprintf(&b, "  // %s %d\n", role, ti)
		if opts.Parallel && ti > 0 {
			b.WriteString("  inst = permute(inst);\n")
		}
		for _, in := range th.Instrs {
			idx := func(loc int) string {
				if loc == 0 {
					return "inst * params.stride"
				}
				return fmt.Sprintf("params.num_instances * params.stride + permute(inst) * params.stride + params.loc_offset")
			}
			switch in.Op {
			case litmus.OpLoad:
				fmt.Fprintf(&b, "  read_results.value[%d] = atomicLoad(&test_locations.value[%s]);\n", reg, idx(in.Loc))
				reg++
			case litmus.OpStore:
				fmt.Fprintf(&b, "  atomicStore(&test_locations.value[%s], %du);\n", idx(in.Loc), in.Val)
			case litmus.OpExchange:
				fmt.Fprintf(&b, "  read_results.value[%d] = atomicExchange(&test_locations.value[%s], %du);\n", reg, idx(in.Loc), in.Val)
				reg++
			case litmus.OpFence:
				b.WriteString("  storageBarrier(); // release/acquire fence\n")
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
