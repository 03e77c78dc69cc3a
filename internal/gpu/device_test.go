package gpu

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/xrand"
)

func dev(t testing.TB, p Profile, bugs Bugs) *Device {
	t.Helper()
	d, err := NewDevice(p, bugs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// twoThreadSpec builds a spec with two single-thread workgroups (the
// inter-workgroup scope the paper tests) plus arbitrary extra programs.
func twoThreadSpec(memWords int, progs ...Program) LaunchSpec {
	return LaunchSpec{
		WorkgroupSize: 1,
		Workgroups:    len(progs),
		MemWords:      memWords,
		Programs:      progs,
	}
}

func TestProfilesValidate(t *testing.T) {
	for _, p := range AllProfiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.ShortName, err)
		}
	}
}

// TestTable3Devices checks the device inventory against Table 3.
func TestTable3Devices(t *testing.T) {
	want := []struct {
		short      string
		vendor     string
		cus        int
		integrated bool
	}{
		{"NVIDIA", "NVIDIA", 64, false},
		{"AMD", "AMD", 24, false},
		{"Intel", "Intel", 48, true},
		{"M1", "Apple", 128, true},
	}
	ps := Profiles()
	if len(ps) != 4 {
		t.Fatalf("Profiles() returned %d devices, want 4", len(ps))
	}
	for i, w := range want {
		p := ps[i]
		if p.ShortName != w.short || p.Vendor != w.vendor || p.CUs != w.cus || p.Integrated != w.integrated {
			t.Errorf("device %d = %s/%s CUs=%d integrated=%v, want %+v",
				i, p.Vendor, p.ShortName, p.CUs, p.Integrated, w)
		}
	}
	if _, ok := ProfileByName("Kepler"); !ok {
		t.Error("Kepler profile missing")
	}
	if _, ok := ProfileByName("bogus"); ok {
		t.Error("ProfileByName resolved a bogus name")
	}
}

func TestRunDeterministic(t *testing.T) {
	p := intelProfile()
	prog0 := Program{
		{Op: OpStore, Addr: 0, Imm: 1},
		{Op: OpStore, Addr: 1, Imm: 1},
	}
	prog1 := Program{
		{Op: OpLoad, Addr: 1, Reg: 0},
		{Op: OpLoad, Addr: 0, Reg: 1},
	}
	spec := twoThreadSpec(2, prog0, prog1)
	d := dev(t, p, Bugs{})
	run, err := d.RunCtx(context.Background(), spec, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	// A RunResult aliases device scratch and is only valid until the
	// next Run, so snapshot before rerunning.
	a := snapshotRun(run)
	run, err = d.RunCtx(context.Background(), spec, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b := snapshotRun(run)
	if a.Stats.Ticks != b.Stats.Ticks {
		t.Fatalf("same seed, different ticks: %d vs %d", a.Stats.Ticks, b.Stats.Ticks)
	}
	for i := range a.Registers {
		for j := range a.Registers[i] {
			if a.Registers[i][j] != b.Registers[i][j] {
				t.Fatalf("same seed, different registers at t%d r%d", i, j)
			}
		}
	}
}

// snapshotRun deep-copies a RunResult out of the device's reusable
// scratch.
func snapshotRun(r *RunResult) RunResult {
	c := *r
	c.Registers = make([][]uint32, len(r.Registers))
	for i, regs := range r.Registers {
		c.Registers[i] = append([]uint32(nil), regs...)
	}
	c.Memory = append([]uint32(nil), r.Memory...)
	return c
}

func TestSingleThreadProgramOrder(t *testing.T) {
	// A thread must see its own stores (program order per location).
	prog := Program{
		{Op: OpStore, Addr: 0, Imm: 42},
		{Op: OpLoad, Addr: 0, Reg: 0},
		{Op: OpStore, Addr: 0, Imm: 43},
		{Op: OpLoad, Addr: 0, Reg: 1},
	}
	d := dev(t, intelProfile(), Bugs{})
	rng := xrand.New(1)
	for i := 0; i < 50; i++ {
		res, err := d.RunCtx(context.Background(), twoThreadSpec(1, prog), rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Registers[0][0] != 42 || res.Registers[0][1] != 43 {
			t.Fatalf("iteration %d: own stores not observed: %v", i, res.Registers[0])
		}
		if res.Memory[0] != 43 {
			t.Fatalf("final memory %d, want 43", res.Memory[0])
		}
	}
}

// TestCoherenceHoldsWithoutBugs: on every conformant profile, two reads
// of one location in a thread never observe new-then-old (the CoRR
// violation), no matter the contention.
func TestCoherenceHoldsWithoutBugs(t *testing.T) {
	writer := Program{{Op: OpStore, Addr: 0, Imm: 1}}
	reader := Program{
		{Op: OpLoad, Addr: 0, Reg: 0},
		{Op: OpLoad, Addr: 0, Reg: 1},
	}
	// Stress threads hammering the same line maximize pressure.
	stress := Program{}
	for i := 0; i < 20; i++ {
		stress = append(stress, Instr{Op: OpStressLoad, Addr: 2})
		stress = append(stress, Instr{Op: OpStressStore, Addr: 3, Imm: 9})
	}
	for _, p := range AllProfiles() {
		d := dev(t, p, Bugs{})
		rng := xrand.New(11)
		for i := 0; i < 100; i++ {
			res, err := d.RunCtx(context.Background(), twoThreadSpec(4, writer, reader, stress, stress), rng)
			if err != nil {
				t.Fatal(err)
			}
			r0, r1 := res.Registers[1][0], res.Registers[1][1]
			if r0 == 1 && r1 == 0 {
				t.Fatalf("%s: coherence violation without bugs (iteration %d)", p.ShortName, i)
			}
		}
	}
}

// TestCoherenceRRBugFires: with the injected load-load defect and line
// pressure, the CoRR violation appears.
func TestCoherenceRRBugFires(t *testing.T) {
	writer := Program{{Op: OpStore, Addr: 0, Imm: 1}}
	reader := Program{
		{Op: OpLoad, Addr: 0, Reg: 0},
		{Op: OpLoad, Addr: 0, Reg: 1},
	}
	// Extra readers of the same location create line pressure.
	noise := Program{
		{Op: OpStressLoad, Addr: 0}, {Op: OpStressLoad, Addr: 0},
		{Op: OpStressLoad, Addr: 0}, {Op: OpStressLoad, Addr: 0},
	}
	bugs := Bugs{CoherenceRR: true, CoherenceRRProb: 0.5, CoherenceRRPressure: 1}
	d := dev(t, intelProfile(), bugs)
	rng := xrand.New(3)
	violations := 0
	for i := 0; i < 400; i++ {
		res, err := d.RunCtx(context.Background(), twoThreadSpec(2, writer, reader, noise, noise), rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Registers[1][0] == 1 && res.Registers[1][1] == 0 {
			violations++
		}
	}
	if violations == 0 {
		t.Fatal("CoherenceRR bug never produced a CoRR violation in 400 runs")
	}
}

// preStressed prepends a few throwaway accesses so the interesting
// instructions issue inside the contention window the noise threads
// create — the role the harness's pre-stress parameter plays.
func preStressed(n int, scratch uint32, body Program) Program {
	var p Program
	for i := 0; i < n; i++ {
		p = append(p, Instr{Op: OpStressLoad, Addr: scratch})
	}
	return append(p, body...)
}

// TestMPWeakBehaviorUnderPressure: message passing re-ordering must be
// observable on a conformant device given same-line contention (this is
// legal — the device is relaxed).
func TestMPWeakBehaviorUnderPressure(t *testing.T) {
	// x and y on the same line as the contended addresses.
	writer := preStressed(3, 2, Program{
		{Op: OpStore, Addr: 0, Imm: 1}, // data x
		{Op: OpStore, Addr: 1, Imm: 1}, // flag y
	})
	reader := preStressed(3, 3, Program{
		{Op: OpLoad, Addr: 1, Reg: 0},
		{Op: OpLoad, Addr: 0, Reg: 1},
	})
	var noise Program
	for i := 0; i < 12; i++ {
		noise = append(noise, Instr{Op: OpStressLoad, Addr: 2})
		noise = append(noise, Instr{Op: OpStressStore, Addr: 3, Imm: 9})
	}
	weak := 0
	d := dev(t, amdProfile(), Bugs{})
	rng := xrand.New(5)
	for i := 0; i < 600; i++ {
		res, err := d.RunCtx(context.Background(), twoThreadSpec(4, writer, reader, noise, noise, noise), rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Registers[1][0] == 1 && res.Registers[1][1] == 0 {
			weak++
		}
	}
	if weak == 0 {
		t.Fatal("no MP weak behavior in 600 pressured runs on AMD profile")
	}
}

// TestFencesRestoreOrder: with fences between the accesses, the MP weak
// outcome must never appear on a conformant device.
func TestFencesRestoreOrder(t *testing.T) {
	writer := preStressed(3, 2, Program{
		{Op: OpStore, Addr: 0, Imm: 1},
		{Op: OpFence},
		{Op: OpStore, Addr: 1, Imm: 1},
	})
	reader := preStressed(3, 3, Program{
		{Op: OpLoad, Addr: 1, Reg: 0},
		{Op: OpFence},
		{Op: OpLoad, Addr: 0, Reg: 1},
	})
	var noise Program
	for i := 0; i < 12; i++ {
		noise = append(noise, Instr{Op: OpStressLoad, Addr: 2})
		noise = append(noise, Instr{Op: OpStressStore, Addr: 3, Imm: 9})
	}
	d := dev(t, amdProfile(), Bugs{})
	rng := xrand.New(9)
	for i := 0; i < 600; i++ {
		res, err := d.RunCtx(context.Background(), twoThreadSpec(4, writer, reader, noise, noise, noise), rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Registers[1][0] == 1 && res.Registers[1][1] == 0 {
			t.Fatalf("fenced MP violated on conformant device (iteration %d)", i)
		}
	}
}

// TestDropFencesBugReintroducesWeakness: the fence-drop defect makes
// the fenced test behave like the unfenced one.
func TestDropFencesBugReintroducesWeakness(t *testing.T) {
	writer := preStressed(3, 2, Program{
		{Op: OpStore, Addr: 0, Imm: 1},
		{Op: OpFence},
		{Op: OpStore, Addr: 1, Imm: 1},
	})
	reader := preStressed(3, 3, Program{
		{Op: OpLoad, Addr: 1, Reg: 0},
		{Op: OpFence},
		{Op: OpLoad, Addr: 0, Reg: 1},
	})
	var noise Program
	for i := 0; i < 12; i++ {
		noise = append(noise, Instr{Op: OpStressLoad, Addr: 2})
		noise = append(noise, Instr{Op: OpStressStore, Addr: 3, Imm: 9})
	}
	d := dev(t, amdProfile(), Bugs{DropFences: true})
	rng := xrand.New(13)
	weak := 0
	var dropped int64
	for i := 0; i < 600; i++ {
		res, err := d.RunCtx(context.Background(), twoThreadSpec(4, writer, reader, noise, noise, noise), rng)
		if err != nil {
			t.Fatal(err)
		}
		dropped += res.Stats.DroppedFences
		if res.Registers[1][0] == 1 && res.Registers[1][1] == 0 {
			weak++
		}
	}
	if dropped == 0 {
		t.Fatal("DroppedFences stat never incremented")
	}
	if weak == 0 {
		t.Fatal("fence-drop bug never produced the MP violation")
	}
}

// TestStaleCacheBug: a stale line on the reader's CU yields the MP-CO
// violation: the second read observes an older value than the first.
func TestStaleCacheBug(t *testing.T) {
	p := keplerProfile()
	// The writer's slight delay lets the reader's CU cache the line
	// while x is still 0; the stores then land in memory without
	// invalidating that stale copy (the bug).
	writer := preStressed(4, 2, Program{
		{Op: OpStore, Addr: 0, Imm: 1},
		{Op: OpStore, Addr: 0, Imm: 2},
	})
	// The reader's first neighbor-word access fills its CU's line with
	// the initial snapshot; the trailing x loads then race the stores,
	// sometimes reading fresh memory (a bypass) before hitting the
	// stale line.
	reader := preStressed(8, 1, Program{
		{Op: OpLoad, Addr: 0, Reg: 0},
		{Op: OpLoad, Addr: 0, Reg: 1},
	})
	spec := LaunchSpec{
		WorkgroupSize: 1,
		Workgroups:    2,
		MemWords:      4,
		Programs:      []Program{writer, reader},
	}
	d := dev(t, p, Bugs{StaleCache: true})
	rng := xrand.New(17)
	violations, stale := 0, int64(0)
	for i := 0; i < 800; i++ {
		res, err := d.RunCtx(context.Background(), spec, rng)
		if err != nil {
			t.Fatal(err)
		}
		stale += res.Stats.StaleReads
		r0, r1 := res.Registers[1][0], res.Registers[1][1]
		if r0 > r1 { // saw a newer value, then an older one
			violations++
		}
	}
	if stale == 0 {
		t.Fatal("StaleReads stat never incremented")
	}
	if violations == 0 {
		t.Fatal("stale-cache bug never produced a coherence violation in 800 runs")
	}
	// Without the bug the same layout must never violate.
	d2 := dev(t, p, Bugs{})
	for i := 0; i < 200; i++ {
		res, err := d2.RunCtx(context.Background(), spec, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Registers[1][0] > res.Registers[1][1] {
			t.Fatal("conformant Kepler profile violated coherence")
		}
	}
}

// TestExchangeAtomicity: concurrent exchanges form a chain — all
// observed old values are distinct and one thread sees the initial 0.
func TestExchangeAtomicity(t *testing.T) {
	const n = 16
	progs := make([]Program, n)
	for i := range progs {
		progs[i] = Program{{Op: OpExchange, Addr: 0, Imm: uint32(i + 1), Reg: 0}}
	}
	d := dev(t, nvidiaProfile(), Bugs{})
	rng := xrand.New(19)
	for iter := 0; iter < 50; iter++ {
		res, err := d.RunCtx(context.Background(), LaunchSpec{
			WorkgroupSize: 1, Workgroups: n, MemWords: 1, Programs: progs,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint32]bool{}
		zeros := 0
		for i := 0; i < n; i++ {
			v := res.Registers[i][0]
			if seen[v] {
				t.Fatalf("duplicate exchanged value %d: atomicity broken", v)
			}
			seen[v] = true
			if v == 0 {
				zeros++
			}
		}
		if zeros != 1 {
			t.Fatalf("%d threads read the initial value, want exactly 1", zeros)
		}
	}
}

// TestBarrierSynchronizes: threads separated by a barrier must observe
// all pre-barrier stores of their workgroup.
func TestBarrierSynchronizes(t *testing.T) {
	const wgSize = 8
	progs := make([]Program, wgSize)
	for i := 0; i < wgSize; i++ {
		progs[i] = Program{
			{Op: OpStore, Addr: uint32(i), Imm: uint32(i + 1)},
			{Op: OpBarrier},
			{Op: OpLoad, Addr: uint32((i + 1) % wgSize), Reg: 0},
		}
	}
	d := dev(t, m1Profile(), Bugs{})
	rng := xrand.New(23)
	for iter := 0; iter < 100; iter++ {
		res, err := d.RunCtx(context.Background(), LaunchSpec{
			WorkgroupSize: wgSize, Workgroups: 1, MemWords: wgSize, Programs: progs,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < wgSize; i++ {
			want := uint32((i+1)%wgSize) + 1
			if got := res.Registers[i][0]; got != want {
				t.Fatalf("thread %d read %d after barrier, want %d", i, got, want)
			}
		}
	}
}

func TestWorkgroupWavesAdmission(t *testing.T) {
	// More workgroups than CU slots: all must still complete.
	p := keplerProfile() // 12 CUs * 4 slots = 48 resident workgroups
	const wgs = 200
	progs := make([]Program, wgs)
	for i := range progs {
		progs[i] = Program{
			{Op: OpStore, Addr: uint32(i), Imm: uint32(i + 1)},
			{Op: OpLoad, Addr: uint32(i), Reg: 0},
		}
	}
	d := dev(t, p, Bugs{})
	res, err := d.RunCtx(context.Background(), LaunchSpec{
		WorkgroupSize: 1, Workgroups: wgs, MemWords: wgs, Programs: progs,
	}, xrand.New(29))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < wgs; i++ {
		if res.Registers[i][0] != uint32(i+1) {
			t.Fatalf("workgroup %d did not complete correctly", i)
		}
		if res.Memory[i] != uint32(i+1) {
			t.Fatalf("memory[%d] = %d", i, res.Memory[i])
		}
	}
}

func TestSimSecondsIncludesOverhead(t *testing.T) {
	p := intelProfile()
	d := dev(t, p, Bugs{})
	res, err := d.RunCtx(context.Background(), twoThreadSpec(1, Program{{Op: OpStore, Addr: 0, Imm: 1}}), xrand.New(31))
	if err != nil {
		t.Fatal(err)
	}
	minSeconds := float64(p.LaunchOverheadTicks) / p.ClockHz
	if res.SimSeconds < minSeconds {
		t.Fatalf("SimSeconds %v below launch overhead %v", res.SimSeconds, minSeconds)
	}
	if res.Stats.Ticks <= 0 {
		t.Fatal("no simulated ticks recorded")
	}
}

func TestValidateErrors(t *testing.T) {
	good := twoThreadSpec(1, Program{{Op: OpStore, Addr: 0, Imm: 1}})
	cases := []struct {
		name   string
		mutate func(*LaunchSpec)
	}{
		{"zero wg size", func(s *LaunchSpec) { s.WorkgroupSize = 0 }},
		{"zero wgs", func(s *LaunchSpec) { s.Workgroups = 0 }},
		{"zero mem", func(s *LaunchSpec) { s.MemWords = 0 }},
		{"program count", func(s *LaunchSpec) { s.Programs = s.Programs[:0] }},
		{"addr out of range", func(s *LaunchSpec) {
			s.Programs = []Program{{{Op: OpLoad, Addr: 99, Reg: 0}}}
		}},
	}
	for _, c := range cases {
		s := good
		s.Programs = append([]Program(nil), good.Programs...)
		c.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid spec", c.name)
		}
	}
	d := dev(t, intelProfile(), Bugs{})
	bad := good
	bad.MemWords = 0
	if _, err := d.RunCtx(context.Background(), bad, xrand.New(1)); err == nil {
		t.Error("Run accepted invalid spec")
	}
}

// TestValidateRejectsUnknownOpcodes: an opcode past OpStressStore is
// an error naming the thread and instruction, from Validate and from
// Run, instead of decoding as some other op at run time. Fences and
// barriers keep their unchecked Addr.
func TestValidateRejectsUnknownOpcodes(t *testing.T) {
	d := dev(t, intelProfile(), Bugs{})
	for _, op := range []Op{7, 8, 255} {
		s := twoThreadSpec(1, Program{{Op: OpStore, Addr: 0, Imm: 1}},
			Program{{Op: OpFence}, {Op: op, Addr: 8, Reg: 0}})
		want := fmt.Sprintf("gpu: thread 1 instr 1: unknown opcode %d", op)
		if err := s.Validate(); err == nil || err.Error() != want {
			t.Errorf("op %d: Validate = %v, want %q", op, err, want)
		}
		if _, err := d.RunCtx(context.Background(), s, xrand.New(1)); err == nil || err.Error() != want {
			t.Errorf("op %d: Run = %v, want %q", op, err, want)
		}
	}
	for op := OpLoad; op <= OpStressStore; op++ {
		addr := uint32(0)
		if !op.IsMemory() {
			addr = 1 << 20
		}
		s := twoThreadSpec(1, Program{{Op: op, Addr: addr}})
		if err := s.Validate(); err != nil {
			t.Errorf("%v: Validate rejected a known opcode: %v", op, err)
		}
	}
}

func TestNewDeviceRejectsBadProfile(t *testing.T) {
	p := intelProfile()
	p.CUs = 0
	if _, err := NewDevice(p, Bugs{}); err == nil {
		t.Fatal("NewDevice accepted CUs=0")
	}
}

func TestEmptyProgramsRetireImmediately(t *testing.T) {
	d := dev(t, intelProfile(), Bugs{})
	res, err := d.RunCtx(context.Background(), LaunchSpec{
		WorkgroupSize: 4, Workgroups: 1, MemWords: 1,
		Programs: []Program{{}, {}, {}, {{Op: OpStore, Addr: 0, Imm: 5}}},
	}, xrand.New(37))
	if err != nil {
		t.Fatal(err)
	}
	if res.Memory[0] != 5 {
		t.Fatal("active thread did not run")
	}
}

func TestBarrierWithRetiredThreads(t *testing.T) {
	// One thread retires before the barrier; the rest must not deadlock.
	d := dev(t, intelProfile(), Bugs{})
	progs := []Program{
		{{Op: OpStore, Addr: 0, Imm: 1}}, // no barrier, retires early
		{{Op: OpBarrier}, {Op: OpLoad, Addr: 0, Reg: 0}},
		{{Op: OpBarrier}, {Op: OpLoad, Addr: 0, Reg: 0}},
	}
	res, err := d.RunCtx(context.Background(), LaunchSpec{
		WorkgroupSize: 3, Workgroups: 1, MemWords: 1, Programs: progs,
	}, xrand.New(41))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Instructions == 0 {
		t.Fatal("nothing executed")
	}
}

func TestStatsPopulated(t *testing.T) {
	var noise Program
	for i := 0; i < 30; i++ {
		noise = append(noise, Instr{Op: OpStressLoad, Addr: 0})
	}
	d := dev(t, amdProfile(), Bugs{})
	res, err := d.RunCtx(context.Background(), twoThreadSpec(1, noise, noise, noise, noise), xrand.New(43))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Instructions < 120 || res.Stats.MemOps < 120 {
		t.Fatalf("stats undercount: %+v", res.Stats)
	}
	if res.Stats.MaxGlobalInFlight <= 0 {
		t.Fatal("MaxGlobalInFlight not tracked")
	}
}

func TestOpStrings(t *testing.T) {
	for op, want := range map[Op]string{
		OpLoad: "ld", OpStore: "st", OpExchange: "xchg", OpFence: "fence",
		OpBarrier: "barrier", OpStressLoad: "stress.ld", OpStressStore: "stress.st",
	} {
		if op.String() != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, op.String(), want)
		}
	}
	for b, want := range map[Backend]string{Metal: "Metal", Vulkan: "Vulkan", HLSL: "HLSL"} {
		if b.String() != want {
			t.Errorf("Backend.String() = %q, want %q", b.String(), want)
		}
	}
}

func BenchmarkRunSmallKernel(b *testing.B) {
	writer := Program{
		{Op: OpStore, Addr: 0, Imm: 1},
		{Op: OpStore, Addr: 1, Imm: 1},
	}
	reader := Program{
		{Op: OpLoad, Addr: 1, Reg: 0},
		{Op: OpLoad, Addr: 0, Reg: 1},
	}
	d := MustDevice(amdProfile(), Bugs{})
	spec := twoThreadSpec(2, writer, reader)
	rng := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.RunCtx(context.Background(), spec, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunParallelKernel(b *testing.B) {
	// 64 workgroups x 32 threads, each thread a 4-instruction test role.
	const wgs, wgSize = 64, 32
	progs := make([]Program, wgs*wgSize)
	for i := range progs {
		base := uint32((i * 2) % 1024)
		progs[i] = Program{
			{Op: OpStore, Addr: base, Imm: 1},
			{Op: OpStore, Addr: base + 1, Imm: 1},
			{Op: OpLoad, Addr: base + 1, Reg: 0},
			{Op: OpLoad, Addr: base, Reg: 1},
		}
	}
	d := MustDevice(nvidiaProfile(), Bugs{})
	spec := LaunchSpec{WorkgroupSize: wgSize, Workgroups: wgs, MemWords: 1025, Programs: progs}
	rng := xrand.New(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.RunCtx(context.Background(), spec, rng); err != nil {
			b.Fatal(err)
		}
	}
}
