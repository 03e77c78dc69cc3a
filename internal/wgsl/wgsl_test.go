package wgsl

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/mutation"
	"repro/internal/xrand"
)

var fenced = gpu.Program{
	{Op: gpu.OpStore, Addr: 0, Imm: 1},
	{Op: gpu.OpFence},
	{Op: gpu.OpStore, Addr: 1, Imm: 1},
}

func countFences(p gpu.Program) int {
	n := 0
	for _, in := range p {
		if in.Op == gpu.OpFence {
			n++
		}
	}
	return n
}

func TestConformantVulkanPreservesFences(t *testing.T) {
	tc := &Toolchain{Backend: gpu.Vulkan, Driver: DriverConformant}
	out, passes := tc.Lower(fenced)
	if countFences(out) != 1 {
		t.Fatalf("conformant vulkan lowered %d fences, want 1:\n%v", countFences(out), out)
	}
	if len(passes) == 0 {
		t.Fatal("no passes reported")
	}
	// Annotation must not leak into the final encoding.
	for _, in := range out {
		if in.Op == gpu.OpFence && in.Imm != 0 {
			t.Fatalf("fence kept annotation %#x", in.Imm)
		}
	}
}

func TestDefectiveVulkanDropsFences(t *testing.T) {
	tc := &Toolchain{Backend: gpu.Vulkan, Driver: DriverFenceDropping}
	out, passes := tc.Lower(fenced)
	if countFences(out) != 0 {
		t.Fatalf("defective driver kept %d fences", countFences(out))
	}
	found := false
	for _, p := range passes {
		if strings.Contains(p, "defective") {
			found = true
		}
	}
	if !found {
		t.Fatalf("defective pass not reported: %v", passes)
	}
	// Non-fence instructions survive untouched, in order.
	if len(out) != 2 || out[0].Op != gpu.OpStore || out[1].Op != gpu.OpStore {
		t.Fatalf("lowering mangled program: %v", out)
	}
}

func TestMetalAndHLSLPreserveFences(t *testing.T) {
	for _, backend := range []gpu.Backend{gpu.Metal, gpu.HLSL} {
		tc := &Toolchain{Backend: backend, Driver: DriverFenceDropping}
		// The defect is Vulkan-specific; other backends keep fences even
		// with the "defective" flag because their pipelines differ.
		out, _ := tc.Lower(fenced)
		if countFences(out) != 1 {
			t.Fatalf("%v: %d fences, want 1", backend, countFences(out))
		}
	}
}

func TestLoweringDoesNotMutateInput(t *testing.T) {
	in := make(gpu.Program, len(fenced))
	copy(in, fenced)
	tc := &Toolchain{Backend: gpu.Vulkan, Driver: DriverFenceDropping}
	tc.Lower(in)
	for i := range in {
		if in[i] != fenced[i] {
			t.Fatal("Lower mutated its input")
		}
	}
}

// referenceLower is the copy-per-pass pipeline the passes implemented
// before they worked in place: every stage reads its input and builds a
// fresh output. It is written out independently of the Pass types so
// the in-place pipeline is checked against the semantics, not against
// itself.
func referenceLower(tc *Toolchain, p gpu.Program) gpu.Program {
	stage := func(in gpu.Program, f func(gpu.Instr, gpu.Program) (gpu.Instr, bool)) gpu.Program {
		out := make(gpu.Program, 0, len(in))
		for _, i := range in {
			if i, keep := f(i, out); keep {
				out = append(out, i)
			}
		}
		return out
	}
	if tc.Backend == gpu.Vulkan {
		p = stage(p, func(i gpu.Instr, _ gpu.Program) (gpu.Instr, bool) { // annotate
			if i.Op == gpu.OpFence {
				i.Imm = semAcquireRelease | semStorageBuffer
			}
			return i, true
		})
		p = stage(p, func(i gpu.Instr, _ gpu.Program) (gpu.Instr, bool) { // SPIR-V consumer
			if i.Op == gpu.OpFence && tc.Driver == DriverFenceDropping {
				i.Imm = 0
			}
			return i, true
		})
		p = stage(p, func(i gpu.Instr, _ gpu.Program) (gpu.Instr, bool) { // encode
			if i.Op != gpu.OpFence {
				return i, true
			}
			keep := i.Imm&semAcquireRelease != 0
			i.Imm = 0
			return i, keep
		})
	}
	return stage(p, func(i gpu.Instr, out gpu.Program) (gpu.Instr, bool) { // fold
		return i, i.Op != gpu.OpFence || len(out) == 0 || out[len(out)-1].Op != gpu.OpFence
	})
}

// randomProgram draws a program mixing memory, stress, barrier and
// fence instructions. Fences are common enough that leading, trailing
// and adjacent runs of them all occur across seeds, and every field is
// randomized so a pass that clobbers the wrong instruction shows up.
func randomProgram(rng *xrand.Rand) gpu.Program {
	ops := []gpu.Op{gpu.OpLoad, gpu.OpStore, gpu.OpExchange, gpu.OpBarrier, gpu.OpStressLoad, gpu.OpStressStore}
	p := make(gpu.Program, rng.Intn(24))
	for i := range p {
		op := ops[rng.Intn(len(ops))]
		if rng.Bool(0.45) {
			op = gpu.OpFence
		}
		p[i] = gpu.Instr{Op: op, Addr: rng.Uint32() % 64, Imm: rng.Uint32() % 4, Reg: uint16(rng.Intn(4))}
	}
	return p
}

// TestInPlaceLoweringMatchesReference checks, for every backend and
// driver, that the in-place LowerFunc hook, the copying Lower and the
// copy-per-pass reference agree on edge-case and seeded random
// programs, that the hook really works in place, and that Lower leaves
// its input untouched.
func TestInPlaceLoweringMatchesReference(t *testing.T) {
	store := gpu.Instr{Op: gpu.OpStore, Addr: 3, Imm: 1}
	fence := gpu.Instr{Op: gpu.OpFence}
	progs := []gpu.Program{
		nil,
		{},
		{fence},
		{fence, fence, fence},
		{fence, fence, store},
		{store, fence, fence},
		{fence, store, fence, fence, store, fence},
		{{Op: gpu.OpStressLoad, Addr: 9}, fence, {Op: gpu.OpStressStore, Addr: 9, Imm: 1}, fence},
	}
	rng := xrand.New(15)
	for i := 0; i < 500; i++ {
		progs = append(progs, randomProgram(rng))
	}
	for _, backend := range []gpu.Backend{gpu.Vulkan, gpu.Metal, gpu.HLSL} {
		for _, driver := range []DriverVersion{DriverConformant, DriverFenceDropping} {
			tc := &Toolchain{Backend: backend, Driver: driver}
			hook := tc.LowerFunc()
			for i, p := range progs {
				want := referenceLower(tc, p)
				orig := slices.Clone(p)
				lowered, _ := tc.Lower(p)
				if !slices.Equal(p, orig) {
					t.Fatalf("%v/%v prog %d: Lower mutated its input", backend, driver, i)
				}
				buf := slices.Clone(p)
				hooked := hook(buf)
				if !slices.Equal(lowered, want) || !slices.Equal(hooked, want) {
					t.Fatalf("%v/%v prog %d: %v\nreference %v\nLower     %v\nhook      %v",
						backend, driver, i, p, want, lowered, hooked)
				}
				if len(hooked) > 0 && &hooked[0] != &buf[0] {
					t.Fatalf("%v/%v prog %d: hook reallocated instead of lowering in place", backend, driver, i)
				}
			}
		}
	}
}

func TestFoldRedundantFences(t *testing.T) {
	p := gpu.Program{
		{Op: gpu.OpFence}, {Op: gpu.OpFence},
		{Op: gpu.OpStore, Addr: 0, Imm: 1},
		{Op: gpu.OpFence}, {Op: gpu.OpFence}, {Op: gpu.OpFence},
		{Op: gpu.OpLoad, Addr: 0, Reg: 0},
	}
	out := foldRedundantFences{}.Apply(p)
	if countFences(out) != 2 {
		t.Fatalf("folded to %d fences, want 2", countFences(out))
	}
}

func TestNewToolchainFromProfile(t *testing.T) {
	amd, _ := gpu.ProfileByName("AMD")
	tc := NewToolchain(amd, DriverFenceDropping)
	if tc.Backend != gpu.Vulkan {
		t.Fatalf("AMD toolchain backend = %v", tc.Backend)
	}
	intel, _ := gpu.ProfileByName("Intel")
	if NewToolchain(intel, DriverConformant).Backend != gpu.Metal {
		t.Fatal("Intel toolchain should target Metal")
	}
}

func TestDriverVersionString(t *testing.T) {
	if DriverConformant.String() != "conformant" || DriverFenceDropping.String() != "fence-dropping" {
		t.Fatal("driver names wrong")
	}
}

// TestToolchainReproducesMPRelacqBug runs the full stack: the
// MP-relacq conformance test through the defective Vulkan toolchain on
// the conformant AMD device must show violations, while the conformant
// toolchain must not.
func TestToolchainReproducesMPRelacqBug(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP-relacq")
	prof, _ := gpu.ProfileByName("AMD")
	dev, err := gpu.NewDevice(prof, gpu.Bugs{})
	if err != nil {
		t.Fatal(err)
	}
	env := harness.PTEBaseline(8, 16)
	env.MaxWorkgroups = env.TestingWorkgroups + 4
	env.MemStressPct = 100
	env.MemStressIters = 8
	env.PreStressPct = 80
	env.PreStressIters = 2
	env.MemStride = 2
	env.MemLocOffset = 1

	for _, c := range []struct {
		driver     DriverVersion
		wantViol   bool
		iterations int
	}{
		{DriverConformant, false, 6},
		{DriverFenceDropping, true, 12},
	} {
		r, err := harness.NewRunner(dev, env)
		if err != nil {
			t.Fatal(err)
		}
		r.Lower = NewToolchain(prof, c.driver).LowerFunc()
		res, err := r.RunCtx(context.Background(), test, c.iterations, xrand.New(61))
		if err != nil {
			t.Fatal(err)
		}
		if c.wantViol && res.Violations == 0 {
			t.Errorf("driver %v: bug not observed in %d instances", c.driver, res.Instances)
		}
		if !c.wantViol && res.Violations > 0 {
			t.Errorf("driver %v: %d spurious violations", c.driver, res.Violations)
		}
	}
}

func TestEmitTestShader(t *testing.T) {
	suite := mutation.MustGenerate()
	for _, name := range []string{"CoRR", "MP-relacq", "CoWW", "SB-relacq-rmw"} {
		test, _ := suite.ByName(name)
		src := EmitTestShader(test, SourceOptions{Parallel: true, WorkgroupSize: 128})
		for _, want := range []string{
			"@compute @workgroup_size(128)",
			"fn permute(v : u32)",
			"test_locations",
			"atomic",
		} {
			if !strings.Contains(src, want) {
				t.Errorf("%s: shader missing %q:\n%s", name, want, src)
			}
		}
		if test.HasFences() && !strings.Contains(src, "storageBarrier()") {
			t.Errorf("%s: fence not rendered", name)
		}
	}
	// Single-instance rendering guards the invocation id.
	test, _ := suite.ByName("CoRR")
	src := EmitTestShader(test, SourceOptions{})
	if !strings.Contains(src, "if (gid.x >= 1u) { return; }") {
		t.Errorf("single-instance shader missing guard:\n%s", src)
	}
	if !strings.Contains(src, "@workgroup_size(256)") {
		t.Error("default workgroup size not applied")
	}
}

func TestEmitShaderMentionsMutant(t *testing.T) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("CoRR-mutant")
	src := EmitTestShader(test, SourceOptions{Parallel: true})
	if !strings.Contains(src, "mutant of CoRR") {
		t.Error("mutant provenance missing from shader header")
	}
}

// BenchmarkLowerVulkan times the copying Lower and the in-place hook
// the harness runs. The hook re-lowers a buffer refilled from the
// source program each op, as the Runner does, and reports 0 allocs/op.
func BenchmarkLowerVulkan(b *testing.B) {
	tc := &Toolchain{Backend: gpu.Vulkan, Driver: DriverConformant}
	prog := make(gpu.Program, 0, 64)
	for i := 0; i < 20; i++ {
		prog = append(prog, gpu.Instr{Op: gpu.OpStore, Addr: uint32(i), Imm: 1}, gpu.Instr{Op: gpu.OpFence})
	}
	b.Run("Lower", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tc.Lower(prog)
		}
	})
	b.Run("LowerFunc", func(b *testing.B) {
		hook := tc.LowerFunc()
		buf := make(gpu.Program, len(prog))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(buf, prog)
			hook(buf)
		}
	})
}
