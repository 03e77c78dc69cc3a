package gpu

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// Golden byte-identity fingerprints for the executor.
//
// The data-oriented executor rewrite must keep every observable byte
// identical to the original pointer-chasing interpreter: the same RNG
// draw sequence, the same trace events, the same stats, the same final
// registers and memory. These tests pin that contract. The committed
// testdata/device_golden.json was generated from the pre-rewrite
// implementation (regenerate with UPDATE_GOLDEN=1), so any divergence
// — a reordered candidate scan, an extra or missing RNG draw, a
// changed completion order — fails here with the scenario name.
//
// The scenario battery deliberately covers every executor path: all
// five profiles, each injected bug, fault injection (launch failures,
// watchdog hangs, corruption, device loss), tracing, workgroup wave
// admission, deep MaxOutstanding pipelines, single-line contention,
// and fence/barrier-heavy control flow — warm (device reuse) as well
// as fresh. The mo1-* entries (one op in flight per thread, 64-lane
// warps) came later: they were captured from the executor as it stood
// just before the issue loop learned to skip blocked lanes. The
// poloc-*, sparse-*, waves-M1-* and multiwarp-* entries were captured
// from the executor as it stood before program order per location and
// live-CU tracking moved to decode-time links and a bitmap. The
// trailing-barrier entry was captured when threads whose program ends
// in a barrier began retiring on its release (before, they deadlocked).

// goldenHasher accumulates a deterministic fingerprint.
type goldenHasher struct {
	h   [32]byte
	buf []byte
}

func (g *goldenHasher) u64(v uint64) {
	g.buf = binary.LittleEndian.AppendUint64(g.buf, v)
}

func (g *goldenHasher) u32(v uint32) {
	g.buf = binary.LittleEndian.AppendUint32(g.buf, v)
}

func (g *goldenHasher) str(s string) {
	g.u64(uint64(len(s)))
	g.buf = append(g.buf, s...)
}

// mix folds the accumulated buffer into the running digest.
func (g *goldenHasher) mix() {
	h := sha256.New()
	h.Write(g.h[:])
	h.Write(g.buf)
	h.Sum(g.h[:0])
	g.buf = g.buf[:0]
}

func (g *goldenHasher) sum() string { return hex.EncodeToString(g.h[:]) }

// hashResult folds every observable field of a RunResult, including
// the bit pattern of SimSeconds, so "almost equal" floats fail too.
func (g *goldenHasher) hashResult(res *RunResult) {
	g.u64(uint64(len(res.Registers)))
	for _, regs := range res.Registers {
		g.u64(uint64(len(regs)))
		for _, v := range regs {
			g.u32(v)
		}
	}
	g.u64(uint64(len(res.Memory)))
	for _, v := range res.Memory {
		g.u32(v)
	}
	g.u64(math.Float64bits(res.SimSeconds))
	s := res.Stats
	g.u64(uint64(s.Instructions))
	g.u64(uint64(s.MemOps))
	g.u64(uint64(s.Ticks))
	g.u64(uint64(s.StaleReads))
	g.u64(uint64(s.RelaxedRR))
	g.u64(uint64(s.DroppedFences))
	g.u64(uint64(s.PressureStalls))
	g.u64(uint64(s.CorruptedValues))
	g.u64(uint64(s.MaxGlobalInFlight))
	g.mix()
}

func (g *goldenHasher) hashTrace(trace []TraceEvent) {
	g.u64(uint64(len(trace)))
	for _, ev := range trace {
		g.u64(uint64(ev.Tick))
		g.u32(uint32(ev.Thread))
		g.u32(uint32(ev.Index))
		g.buf = append(g.buf, byte(ev.Kind), byte(ev.Op))
		g.u32(ev.Addr)
		g.u32(ev.Value)
	}
	g.mix()
}

// hashRNG folds the post-run RNG position, pinning the exact number of
// draws the executor consumed — one draw too many or too few changes
// the fingerprint even if this run's result happens to match.
func (g *goldenHasher) hashRNG(rng *xrand.Rand) {
	g.u64(rng.Uint64())
	g.mix()
}

// --- scenario specs -------------------------------------------------

// mpPairProgs returns the classic message-passing writer/reader pair.
func mpPairProgs(base uint32, fenced bool) (Program, Program) {
	w := Program{
		{Op: OpStore, Addr: base, Imm: 1},
		{Op: OpStore, Addr: base + 1, Imm: 1},
	}
	r := Program{
		{Op: OpLoad, Addr: base + 1, Reg: 0},
		{Op: OpLoad, Addr: base, Reg: 1},
	}
	if fenced {
		w = Program{w[0], {Op: OpFence}, w[1]}
		r = Program{r[0], {Op: OpFence}, r[1]}
	}
	return w, r
}

// mixedSpec exercises every op kind: MP pairs, exchanges, fences,
// barriers, stress traffic and a few empty programs, spread over
// enough workgroups that several CUs hold more than one.
func mixedSpec(wgs, wgSize int) LaunchSpec {
	memWords := 64
	progs := make([]Program, wgs*wgSize)
	for wg := 0; wg < wgs; wg++ {
		for lane := 0; lane < wgSize; lane++ {
			tid := wg*wgSize + lane
			base := uint32((wg * 4) % 48)
			switch wg % 4 {
			case 0: // MP pairs, alternating fenced
				w, r := mpPairProgs(base, wg%8 == 0)
				if lane%2 == 0 {
					progs[tid] = w
				} else {
					progs[tid] = r
				}
			case 1: // barrier phase: store, rendezvous, load the peer's slot
				peer := uint32(wg*wgSize+(lane+1)%wgSize) % 60
				progs[tid] = Program{
					{Op: OpStore, Addr: uint32(tid) % 60, Imm: uint32(tid + 1)},
					{Op: OpBarrier},
					{Op: OpLoad, Addr: peer, Reg: 0},
				}
			case 2: // atomic contention on one word plus stress traffic
				progs[tid] = Program{
					{Op: OpExchange, Addr: 62, Imm: uint32(tid + 1), Reg: 0},
					{Op: OpStressStore, Addr: 63, Imm: uint32(tid)},
					{Op: OpStressLoad, Addr: 63, Reg: 1},
					{Op: OpExchange, Addr: 62, Imm: uint32(tid + 100), Reg: 2},
				}
			default: // sparse: some threads idle (empty program)
				if lane%3 == 0 {
					progs[tid] = nil
				} else {
					progs[tid] = Program{
						{Op: OpStore, Addr: base + 2, Imm: uint32(tid)},
						{Op: OpFence},
						{Op: OpLoad, Addr: base + 3, Reg: 0},
						{Op: OpLoad, Addr: base + 3, Reg: 1},
					}
				}
			}
		}
	}
	return LaunchSpec{WorkgroupSize: wgSize, Workgroups: wgs, MemWords: memWords, Programs: progs}
}

// deepPipelineSpec keeps every thread MaxOutstanding-bound: long runs
// of independent loads/stores to distinct addresses.
func deepPipelineSpec(threads int) LaunchSpec {
	progs := make([]Program, threads)
	for t := 0; t < threads; t++ {
		p := make(Program, 0, 16)
		for i := 0; i < 8; i++ {
			addr := uint32((t*8 + i) % 96)
			p = append(p,
				Instr{Op: OpStore, Addr: addr, Imm: uint32(t<<8 | i)},
				Instr{Op: OpLoad, Addr: (addr + 32) % 96, Reg: uint16(i % 4)})
		}
		progs[t] = p
	}
	return LaunchSpec{WorkgroupSize: 1, Workgroups: threads, MemWords: 96, Programs: progs}
}

// contentionSpec hammers a single cache line from every thread so line
// pressure, global pressure and coherence-bug paths all fire.
func contentionSpec(threads int) LaunchSpec {
	progs := make([]Program, threads)
	for t := 0; t < threads; t++ {
		progs[t] = Program{
			{Op: OpStore, Addr: 0, Imm: uint32(t + 1)},
			{Op: OpLoad, Addr: 0, Reg: 0},
			{Op: OpLoad, Addr: 0, Reg: 1},
			{Op: OpExchange, Addr: 1, Imm: uint32(t + 1000), Reg: 2},
			{Op: OpLoad, Addr: 0, Reg: 3},
		}
	}
	return LaunchSpec{WorkgroupSize: 1, Workgroups: threads, MemWords: 4, Programs: progs}
}

// fenceBarrierSpec is control-flow heavy: multiple barrier phases with
// fences between memory ops in each phase.
func fenceBarrierSpec(wgs, wgSize int) LaunchSpec {
	progs := make([]Program, wgs*wgSize)
	for tid := range progs {
		progs[tid] = Program{
			{Op: OpStore, Addr: uint32(tid % 30), Imm: uint32(tid)},
			{Op: OpFence},
			{Op: OpBarrier},
			{Op: OpLoad, Addr: uint32((tid + 1) % 30), Reg: 0},
			{Op: OpFence},
			{Op: OpBarrier},
			{Op: OpStore, Addr: 31, Imm: uint32(tid)},
			{Op: OpLoad, Addr: 31, Reg: 1},
		}
	}
	return LaunchSpec{WorkgroupSize: wgSize, Workgroups: wgs, MemWords: 32, Programs: progs}
}

// wavesSpec launches far more workgroups than the device can hold so
// retirement-driven admission waves execute; scattered threads are
// empty to cover the immediate-retire path.
func wavesSpec(wgs, wgSize int) LaunchSpec {
	progs := make([]Program, wgs*wgSize)
	for tid := range progs {
		if tid%7 == 3 {
			continue // empty program: retires at admission
		}
		progs[tid] = Program{
			{Op: OpStore, Addr: uint32(tid % 16), Imm: uint32(tid + 1)},
			{Op: OpLoad, Addr: uint32((tid + 5) % 16), Reg: 0},
		}
	}
	return LaunchSpec{WorkgroupSize: wgSize, Workgroups: wgs, MemWords: 16, Programs: progs}
}

// poLocChainSpec gives every thread a long program-order-per-location
// chain: it cycles through 8–12 distinct addresses, three rounds over
// each, mixing loads, stores, stress ops and exchanges, so every
// same-address predecessor sits 8–12 steps back. Every fifth thread
// carries a fence whose Addr lies past MemWords (legal: only memory ops
// are bounds-checked).
func poLocChainSpec(wgs, wgSize int) LaunchSpec {
	const memWords = 64
	ops := [...]Op{OpLoad, OpStore, OpStressLoad, OpLoad, OpExchange, OpStressStore, OpLoad}
	progs := make([]Program, wgs*wgSize)
	for tid := range progs {
		k := 8 + tid%5
		base := tid * 7
		var p Program
		for round := 0; round < 3; round++ {
			for i := 0; i < k; i++ {
				op := ops[(round*k+i+tid)%len(ops)]
				p = append(p, Instr{Op: op, Addr: uint32((base + i*5) % memWords),
					Imm: uint32(tid<<8 | round<<4 | i), Reg: uint16(i % 3)})
			}
			if tid%5 == 0 && round == 1 {
				p = append(p, Instr{Op: OpFence, Addr: memWords + 1000})
			}
		}
		progs[tid] = p
	}
	return LaunchSpec{WorkgroupSize: wgSize, Workgroups: wgs, MemWords: memWords, Programs: progs}
}

// multiWarpBarrierSpec runs one to four barrier phases per thread, the
// count set by the lane's warp within its workgroup (8-lane warps), so
// some resident warps finish or park at a barrier while their
// neighbours still run.
func multiWarpBarrierSpec(wgs, wgSize int) LaunchSpec {
	const memWords = 48
	progs := make([]Program, wgs*wgSize)
	for tid := range progs {
		lane := tid % wgSize
		var p Program
		for ph := 0; ph <= (lane/8)%4; ph++ {
			p = append(p,
				Instr{Op: OpStore, Addr: uint32((tid + ph) % memWords), Imm: uint32(tid<<4 | ph)},
				Instr{Op: OpStressLoad, Addr: uint32((tid * 3) % memWords)},
				Instr{Op: OpBarrier},
				Instr{Op: OpLoad, Addr: uint32((tid + ph + 1) % memWords), Reg: uint16(ph)},
			)
		}
		progs[tid] = p
	}
	return LaunchSpec{WorkgroupSize: wgSize, Workgroups: wgs, MemWords: memWords, Programs: progs}
}

// trailingBarrierSpec ends every non-empty program in a barrier after
// one to three store/load/barrier phases, on 12-thread workgroups (a
// partial warp on every profile) where every fifth thread is empty, so
// each workgroup reaches its last barrier with uneven work behind it
// and its threads retire when that barrier releases.
func trailingBarrierSpec(wgs int) LaunchSpec {
	const memWords, wgSize = 32, 12
	progs := make([]Program, wgs*wgSize)
	for tid := range progs {
		if tid%5 == 2 {
			continue // empty program: retires at admission
		}
		var p Program
		for ph := 0; ph <= tid%3; ph++ {
			p = append(p,
				Instr{Op: OpStore, Addr: uint32((tid + ph) % memWords), Imm: uint32(tid<<4 | ph)},
				Instr{Op: OpLoad, Addr: uint32((tid*3 + ph) % memWords), Reg: uint16(ph)},
				Instr{Op: OpBarrier},
			)
		}
		progs[tid] = p
	}
	return LaunchSpec{WorkgroupSize: wgSize, Workgroups: wgs, MemWords: memWords, Programs: progs}
}

// regroup packs a spec's threads into workgroups of wgSize threads, so
// per-thread programs land in full-width warps.
func regroup(spec LaunchSpec, wgSize int) LaunchSpec {
	spec.Workgroups = len(spec.Programs) / wgSize
	spec.WorkgroupSize = wgSize
	return spec
}

// --- the battery ----------------------------------------------------

type goldenScenario struct {
	name    string
	profile string
	// tune, when set, edits the named profile before the device is
	// built, for shapes no fleet profile has.
	tune   func(*Profile)
	bugs   Bugs
	faults FaultModel
	seed   uint64
	runs   int // sequential runs on ONE device (covers warm reuse)
	traced bool
	spec   LaunchSpec
}

func goldenScenarios() []goldenScenario {
	var out []goldenScenario
	// Every profile over the mixed battery, 3 warm runs each.
	for _, name := range []string{"NVIDIA", "AMD", "Intel", "M1", "Kepler"} {
		out = append(out, goldenScenario{
			name:    "mixed-" + name,
			profile: name,
			seed:    1000 + uint64(len(name)),
			runs:    3,
			spec:    mixedSpec(12, 8),
		})
	}
	// Each injected bug, plus all three at once.
	out = append(out,
		goldenScenario{name: "bug-coherence-rr", profile: "Intel",
			bugs: Bugs{CoherenceRR: true, CoherenceRRProb: 0.3}, seed: 21, runs: 2,
			spec: contentionSpec(24)},
		goldenScenario{name: "bug-stale-cache", profile: "Kepler",
			bugs: Bugs{StaleCache: true}, seed: 22, runs: 2,
			spec: mixedSpec(8, 4)},
		goldenScenario{name: "bug-drop-fences", profile: "AMD",
			bugs: Bugs{DropFences: true}, seed: 23, runs: 2,
			spec: fenceBarrierSpec(6, 8)},
		goldenScenario{name: "bug-all", profile: "NVIDIA",
			bugs: Bugs{CoherenceRR: true, CoherenceRRProb: 0.2, StaleCache: true, DropFences: true},
			seed: 24, runs: 2, spec: mixedSpec(10, 8)},
	)
	// Structural extremes.
	out = append(out,
		goldenScenario{name: "deep-pipeline", profile: "AMD", seed: 31, runs: 2,
			spec: deepPipelineSpec(48)},
		goldenScenario{name: "contention", profile: "M1", seed: 32, runs: 2,
			spec: contentionSpec(64)},
		goldenScenario{name: "fence-barrier", profile: "Intel", seed: 33, runs: 2,
			spec: fenceBarrierSpec(12, 16)},
		goldenScenario{name: "waves", profile: "Kepler", seed: 34, runs: 2,
			spec: wavesSpec(200, 2)},
		goldenScenario{name: "two-thread-mp", profile: "AMD", seed: 35, runs: 4,
			spec: func() LaunchSpec {
				w, r := mpPairProgs(0, false)
				return LaunchSpec{WorkgroupSize: 1, Workgroups: 2, MemWords: 2, Programs: []Program{w, r}}
			}()},
	)
	// Traced variants: the event stream itself is part of the contract.
	out = append(out,
		goldenScenario{name: "traced-mixed", profile: "Intel", seed: 41, runs: 2, traced: true,
			spec: mixedSpec(6, 8)},
		goldenScenario{name: "traced-bugs", profile: "AMD", seed: 42, runs: 2, traced: true,
			bugs: Bugs{CoherenceRR: true, CoherenceRRProb: 0.25, DropFences: true},
			spec: contentionSpec(16)},
	)
	// One op in flight per thread on 64-lane warps: nearly every lane
	// visit finds a full outstanding queue or a fence/barrier waiting on
	// outst > 0. deepPipelineSpec has no fences, so its drop-fences twin
	// must hash the same: the flag alone moves no draw.
	serial := func(p *Profile) { p.MaxOutstanding = 1 }
	for _, drop := range []bool{false, true} {
		suffix := ""
		if drop {
			suffix = "-drop-fences"
		}
		out = append(out,
			goldenScenario{name: "mo1-deep-pipeline" + suffix, profile: "AMD", tune: serial,
				bugs: Bugs{DropFences: drop}, seed: 61, runs: 2,
				spec: regroup(deepPipelineSpec(192), 64)},
			goldenScenario{name: "mo1-fence-barrier" + suffix, profile: "AMD", tune: serial,
				bugs: Bugs{DropFences: drop}, seed: 62, runs: 2,
				spec: fenceBarrierSpec(6, 64)},
		)
	}
	out = append(out,
		goldenScenario{name: "mo1-traced-fence-barrier", profile: "AMD", tune: serial,
			seed: 63, runs: 2, traced: true, spec: fenceBarrierSpec(3, 64)},
	)
	// Where per-location and per-CU bookkeeping works hardest: long
	// po-loc chains (a 16-deep outstanding queue keeps predecessors 8–12
	// steps back in flight, so the po-loc bump and, under a low pressure
	// gate, the coherence defect fire against them), CUs that
	// are mostly empty or go dark and relight as waves admit, and
	// multi-warp CUs whose warps park at barriers unevenly.
	rr := Bugs{CoherenceRR: true, CoherenceRRProb: 0.4, CoherenceRRPressure: 2}
	deepQueue := func(p *Profile) { p.MaxOutstanding = 16 }
	oneWG := func(p *Profile) { p.MaxWGPerCU = 1 }
	out = append(out,
		goldenScenario{name: "poloc-chains", profile: "Intel", tune: deepQueue, seed: 71, runs: 2,
			spec: poLocChainSpec(6, 8)},
		goldenScenario{name: "poloc-chains-rr", profile: "NVIDIA", tune: deepQueue, bugs: rr, seed: 72, runs: 3,
			spec: poLocChainSpec(8, 16)},
		goldenScenario{name: "poloc-chains-rr-traced", profile: "AMD", tune: deepQueue, bugs: rr, seed: 73, runs: 2,
			traced: true, spec: poLocChainSpec(4, 8)},
		goldenScenario{name: "sparse-M1", profile: "M1", seed: 74, runs: 3,
			spec: mixedSpec(3, 32)},
		goldenScenario{name: "sparse-M1-wide", profile: "M1", seed: 75, runs: 2,
			spec: wavesSpec(100, 4)},
		goldenScenario{name: "waves-M1-relight", profile: "M1", tune: oneWG, seed: 76, runs: 2,
			spec: wavesSpec(300, 32)},
		goldenScenario{name: "multiwarp-barrier-Intel", profile: "Intel", seed: 77, runs: 3,
			spec: multiWarpBarrierSpec(12, 32)},
		goldenScenario{name: "multiwarp-barrier-Intel-waves", profile: "Intel", seed: 78, runs: 2,
			spec: multiWarpBarrierSpec(120, 32)},
	)
	// Programs that end in a barrier retire when it releases, across
	// admission waves.
	out = append(out,
		goldenScenario{name: "trailing-barrier", profile: "AMD", seed: 79, runs: 3, traced: true,
			spec: trailingBarrierSpec(60)},
	)
	// Fault injection: the per-run fault draws precede execution, so
	// the error/result sequence pins the fault RNG stream too.
	out = append(out,
		goldenScenario{name: "faults-uniform", profile: "AMD", seed: 51, runs: 40,
			faults: UniformFaults(7, 0.25), spec: mixedSpec(4, 4)},
		goldenScenario{name: "faults-loss", profile: "Intel", seed: 52, runs: 30,
			faults: FaultModel{Seed: 9, LaunchFailProb: 0.2, HangProb: 0.1,
				CorruptProb: 0.2, LossAfter: 25, WatchdogTicks: 50},
			spec: mixedSpec(4, 4)},
	)
	return out
}

// runGoldenScenario executes one scenario and returns its fingerprint.
func runGoldenScenario(t *testing.T, sc goldenScenario) string {
	t.Helper()
	prof, ok := ProfileByName(sc.profile)
	if !ok {
		t.Fatalf("profile %q missing", sc.profile)
	}
	if sc.tune != nil {
		sc.tune(&prof)
	}
	d, err := NewDevice(prof, sc.bugs)
	if err != nil {
		t.Fatal(err)
	}
	if sc.faults.Enabled() {
		if err := d.SetFaults(sc.faults); err != nil {
			t.Fatal(err)
		}
	}
	rng := xrand.New(sc.seed)
	var g goldenHasher
	for i := 0; i < sc.runs; i++ {
		if sc.traced {
			res, trace, err := d.RunTraced(sc.spec, rng)
			if err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
			// Injected bugs intentionally produce traces the checker
			// rejects (that is their point); verify clean devices only.
			if !sc.bugs.Any() {
				if err := VerifyTrace(sc.spec, trace); err != nil {
					t.Fatalf("run %d: trace does not verify: %v", i, err)
				}
			}
			g.hashTrace(trace)
			g.hashResult(res)
		} else {
			res, err := d.RunCtx(context.Background(), sc.spec, rng)
			if err != nil {
				// Fault scenarios legitimately error; the error text
				// (kind, transience) is part of the observable record.
				g.str("err:" + err.Error())
				g.mix()
			} else {
				g.hashResult(res)
			}
		}
	}
	g.hashRNG(rng)
	return g.sum()
}

const deviceGoldenPath = "testdata/device_golden.json"

// TestGoldenDeviceFingerprints locks the executor's observable
// behavior to the committed pre-rewrite fingerprints.
func TestGoldenDeviceFingerprints(t *testing.T) {
	scenarios := goldenScenarios()
	got := make(map[string]string, len(scenarios))
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			got[sc.name] = runGoldenScenario(t, sc)
		})
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		writeGoldenFile(t, deviceGoldenPath, got)
		return
	}
	want := readGoldenFile(t, deviceGoldenPath)
	for _, sc := range scenarios {
		if want[sc.name] == "" {
			t.Errorf("%s: no golden entry (run with UPDATE_GOLDEN=1 to capture)", sc.name)
			continue
		}
		if got[sc.name] != want[sc.name] {
			t.Errorf("%s: fingerprint %s != golden %s — executor behavior diverged from pre-rewrite baseline",
				sc.name, got[sc.name], want[sc.name])
		}
	}
}

func writeGoldenFile(t *testing.T, path string, entries map[string]string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for n := range entries {
		names = append(names, n)
	}
	sort.Strings(names)
	var buf []byte
	buf = append(buf, "{\n"...)
	for i, n := range names {
		comma := ","
		if i == len(names)-1 {
			comma = ""
		}
		buf = append(buf, fmt.Sprintf("  %q: %q%s\n", n, entries[n], comma)...)
	}
	buf = append(buf, "}\n"...)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d golden entries to %s", len(entries), path)
}

func readGoldenFile(t *testing.T, path string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with UPDATE_GOLDEN=1 to capture): %v", err)
	}
	var m map[string]string
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("golden file %s corrupt: %v", path, err)
	}
	return m
}
