package harness

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/litmus"
	"repro/internal/xrand"
)

// regRef locates one litmus register in the kernel's result space.
type regRef struct {
	tid int
	reg uint16
}

// iterationPlan is one iteration's kernel plus the bookkeeping needed
// to recover per-instance outcomes from the device result.
//
// A plan is reusable scratch: buildInto repopulates it in place, so a
// Runner can carry one plan across every iteration of a campaign cell
// and the per-iteration cost touches only memory that already exists.
// All row slices (regOf, locAddr) are windows into the flat backing
// arrays below and are overwritten by the next buildInto.
type iterationPlan struct {
	spec      gpu.LaunchSpec
	instances int
	// regOf[i][r] locates litmus register r of instance i.
	regOf [][]regRef
	// locAddr[i][l] is the memory address of instance i's location l.
	locAddr [][]uint32

	// Reusable backing storage. regOfFlat/locAddrFlat back the regOf/
	// locAddr rows; progBufs holds one instruction buffer per thread
	// (programs[tid] is progBufs[tid] re-sliced); permBuf backs the
	// stress-line permutation; the rest cache their eponymous slices.
	regOfFlat   []regRef
	locAddrFlat []uint32
	locPerms    []affinePerm
	lineStarts  []uint32
	permBuf     []int
	shuffle     []int
	progBufs    [][]gpu.Instr
	programs    []gpu.Program
}

// affinePerm is the PTE pairing function of Sec. 4.1: v -> (v*p + q)
// mod n with p co-prime to n. It is a bijection on [0, n), has no
// divergent control flow on a real device (a multiply, add and modulo),
// and avoids the simple v -> v+1 patterns prior work found ineffective.
type affinePerm struct {
	n, p, q uint64
}

func newAffinePerm(n int, rng *xrand.Rand) affinePerm {
	if n <= 1 {
		return affinePerm{n: uint64(max(n, 1)), p: 1, q: 0}
	}
	return affinePerm{
		n: uint64(n),
		p: rng.Coprime(uint64(n)),
		q: rng.Uint64n(uint64(n)),
	}
}

func (a affinePerm) apply(v int) int {
	return int((uint64(v)*a.p + a.q) % a.n)
}

// applyN composes the permutation k times.
func (a affinePerm) applyN(v, k int) int {
	for i := 0; i < k; i++ {
		v = a.apply(v)
	}
	return v
}

// planBuilder carries one buildInto call's context so the emit helpers
// are plain methods instead of closures — closures capturing the plan
// would escape to the heap on every iteration.
type planBuilder struct {
	plan *iterationPlan
	test *litmus.Test
	p    *Params
	rng  *xrand.Rand
}

// emitStress appends a stress access pattern to prog. Access j of the
// pattern (two per iteration) hits line (base+j) mod the chosen lines,
// at a random word within it; the line index advances by one per
// access instead of being recomputed with a division.
func (b *planBuilder) emitStress(prog gpu.Program, pattern StressPattern, iters int, base int) gpu.Program {
	lines := b.plan.lineStarts
	size := b.p.StressLineSize
	li := base % len(lines)
	for k := 0; k < iters; k++ {
		a1 := lines[li] + uint32(b.rng.Intn(size))
		if li++; li == len(lines) {
			li = 0
		}
		a2 := lines[li] + uint32(b.rng.Intn(size))
		if li++; li == len(lines) {
			li = 0
		}
		switch pattern {
		case StoreStore:
			prog = append(prog,
				gpu.Instr{Op: gpu.OpStressStore, Addr: a1, Imm: 1},
				gpu.Instr{Op: gpu.OpStressStore, Addr: a2, Imm: 1})
		case StoreLoad:
			prog = append(prog,
				gpu.Instr{Op: gpu.OpStressStore, Addr: a1, Imm: 1},
				gpu.Instr{Op: gpu.OpStressLoad, Addr: a2})
		case LoadStore:
			prog = append(prog,
				gpu.Instr{Op: gpu.OpStressLoad, Addr: a1},
				gpu.Instr{Op: gpu.OpStressStore, Addr: a2, Imm: 1})
		case LoadLoad:
			prog = append(prog,
				gpu.Instr{Op: gpu.OpStressLoad, Addr: a1},
				gpu.Instr{Op: gpu.OpStressLoad, Addr: a2})
		}
	}
	return prog
}

// emitRole appends one litmus thread's instructions, bound to an
// instance's addresses, and records register locations.
func (b *planBuilder) emitRole(prog gpu.Program, tid, instance, role int, nextReg *uint16) gpu.Program {
	plan := b.plan
	for _, in := range b.test.Threads[role].Instrs {
		switch in.Op {
		case litmus.OpLoad:
			prog = append(prog, gpu.Instr{
				Op: gpu.OpLoad, Addr: plan.locAddr[instance][in.Loc], Reg: *nextReg,
			})
			plan.regOf[instance][in.Reg] = regRef{tid: tid, reg: *nextReg}
			*nextReg++
		case litmus.OpStore:
			prog = append(prog, gpu.Instr{
				Op: gpu.OpStore, Addr: plan.locAddr[instance][in.Loc], Imm: uint32(in.Val),
			})
		case litmus.OpExchange:
			prog = append(prog, gpu.Instr{
				Op: gpu.OpExchange, Addr: plan.locAddr[instance][in.Loc],
				Imm: uint32(in.Val), Reg: *nextReg,
			})
			plan.regOf[instance][in.Reg] = regRef{tid: tid, reg: *nextReg}
			*nextReg++
		case litmus.OpFence:
			prog = append(prog, gpu.Instr{Op: gpu.OpFence})
		}
	}
	return prog
}

// progBuf returns tid's reusable instruction buffer, emptied.
func (plan *iterationPlan) progBuf(tid int) gpu.Program {
	return plan.progBufs[tid][:0]
}

// setProgram records tid's finished program, keeping the (possibly
// grown) buffer for the next iteration.
func (plan *iterationPlan) setProgram(tid int, prog gpu.Program) {
	plan.progBufs[tid] = prog
	plan.programs[tid] = prog
}

// buildIteration allocates a fresh plan for one iteration's kernel; see
// buildInto for the reusing form the Runner hot path uses.
func buildIteration(test *litmus.Test, p *Params, rng *xrand.Rand) (*iterationPlan, error) {
	plan := &iterationPlan{}
	if err := plan.buildInto(test, p, rng); err != nil {
		return nil, err
	}
	return plan, nil
}

// buildInto constructs one iteration's kernel for the test under the
// environment, reusing the plan's backing storage. Each iteration
// redraws permutations, stress-line placement and per-thread stress
// participation; the random draw sequence is identical to what a fresh
// plan would consume, so reuse never perturbs downstream randomness.
func (plan *iterationPlan) buildInto(test *litmus.Test, p *Params, rng *xrand.Rand) error {
	roles := len(test.Threads)
	if p.Scope == IntraWorkgroup && p.WorkgroupSize < roles {
		return fmt.Errorf("harness: intra-workgroup scope needs workgroup size >= %d roles, have %d",
			roles, p.WorkgroupSize)
	}
	testingWGs := p.TestingWorkgroups
	totalWGs := p.MaxWorkgroups
	if !p.Parallel {
		// SITE: one test thread per workgroup, one workgroup per role.
		if testingWGs < roles {
			testingWGs = roles
		}
		if totalWGs < testingWGs {
			totalWGs = testingWGs
		}
	}
	instances := 1
	if p.Parallel {
		instances = testingWGs * p.WorkgroupSize
	}
	if instances < 1 {
		return fmt.Errorf("harness: zero test instances")
	}

	// Memory layout: one region per test location, then scratch.
	regionWords := instances * p.MemStride
	scratchBase := test.NumLocs * regionWords
	memWords := scratchBase + p.ScratchMemWords
	if cap(plan.locPerms) < test.NumLocs {
		plan.locPerms = make([]affinePerm, test.NumLocs)
	}
	locPerms := plan.locPerms[:test.NumLocs]
	for l := range locPerms {
		if l == 0 || !p.Parallel {
			locPerms[l] = affinePerm{n: uint64(instances), p: 1, q: 0}
		} else {
			locPerms[l] = newAffinePerm(instances, rng)
		}
	}
	plan.growOutcomeMaps(instances, test.NumRegs, test.NumLocs)
	for i := 0; i < instances; i++ {
		for l := 0; l < test.NumLocs; l++ {
			slot := locPerms[l].apply(i)
			off := 0
			if l > 0 {
				off = p.MemLocOffset
			}
			plan.locAddr[i][l] = uint32(l*regionWords + slot*p.MemStride + off)
		}
	}

	// Stress lines within scratch.
	linesAvail := p.ScratchMemWords / p.StressLineSize
	nLines := p.StressTargetLines
	if nLines > linesAvail {
		nLines = linesAvail
	}
	plan.permBuf = rng.PermInto(plan.permBuf, linesAvail)
	plan.lineStarts = plan.lineStarts[:0]
	for _, li := range plan.permBuf[:nLines] {
		plan.lineStarts = append(plan.lineStarts, uint32(scratchBase+li*p.StressLineSize))
	}
	b := planBuilder{plan: plan, test: test, p: p, rng: rng}

	// Role pairing permutation (PTE). Under the intra-workgroup scope
	// the permutation acts within each workgroup's lane space so all of
	// an instance's roles stay in one workgroup.
	pairSpace := instances
	if p.Scope == IntraWorkgroup && p.Parallel {
		pairSpace = p.WorkgroupSize
	}
	var pairing affinePerm
	if p.NaivePairing {
		// The simple successor mapping prior work found ineffective;
		// kept for the ablation study.
		pairing = affinePerm{n: uint64(pairSpace), p: 1, q: 1 % uint64(pairSpace)}
	} else {
		pairing = newAffinePerm(pairSpace, rng)
	}

	// Per-iteration draws.
	barrier := rng.Intn(100) < p.BarrierPct
	if cap(plan.shuffle) < instances {
		plan.shuffle = make([]int, instances)
	}
	shuffle := plan.shuffle[:instances]
	for i := range shuffle {
		shuffle[i] = i
	}
	if p.Parallel && rng.Intn(100) < p.ShufflePct {
		// Fisher-Yates inlined (draw-identical to rng.Shuffle) so no
		// swap closure escapes to the heap.
		for i := len(shuffle) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			shuffle[i], shuffle[j] = shuffle[j], shuffle[i]
		}
	}

	nThreads := totalWGs * p.WorkgroupSize
	plan.growPrograms(nThreads)

	if p.Parallel {
		// Every thread of every testing workgroup runs all roles, each
		// for a different instance, paired by the permutation: thread v
		// runs role 0 of instance v, role 1 of instance perm(v), role 2
		// of instance perm(perm(v)), ... Under the intra-workgroup
		// scope the permutation acts on lanes, keeping each instance's
		// roles inside one workgroup.
		for wg := 0; wg < testingWGs; wg++ {
			for lane := 0; lane < p.WorkgroupSize; lane++ {
				tid := wg*p.WorkgroupSize + lane
				prog := plan.progBuf(tid)
				if barrier {
					prog = append(prog, gpu.Instr{Op: gpu.OpBarrier})
				}
				if p.PreStressIters > 0 && rng.Intn(100) < p.PreStressPct {
					prog = b.emitStress(prog, p.PreStressPattern, p.PreStressIters, tid)
				}
				var nextReg uint16
				for r := 0; r < roles; r++ {
					var inst int
					if p.Scope == IntraWorkgroup {
						inst = wg*p.WorkgroupSize + pairing.applyN(lane, r)
					} else {
						inst = pairing.applyN(shuffle[tid], r)
					}
					prog = b.emitRole(prog, tid, inst, r, &nextReg)
				}
				plan.setProgram(tid, prog)
			}
		}
	} else if p.Scope == IntraWorkgroup {
		// SITE, intra-workgroup: role r runs on lane r of workgroup 0.
		for r := 0; r < roles; r++ {
			tid := r
			prog := plan.progBuf(tid)
			if barrier {
				prog = append(prog, gpu.Instr{Op: gpu.OpBarrier})
			}
			if p.PreStressIters > 0 && rng.Intn(100) < p.PreStressPct {
				prog = b.emitStress(prog, p.PreStressPattern, p.PreStressIters, tid)
			}
			var nextReg uint16
			prog = b.emitRole(prog, tid, 0, r, &nextReg)
			plan.setProgram(tid, prog)
		}
	} else {
		// SITE: role r runs on thread 0 of workgroup r.
		for r := 0; r < roles; r++ {
			tid := r * p.WorkgroupSize
			prog := plan.progBuf(tid)
			if barrier {
				prog = append(prog, gpu.Instr{Op: gpu.OpBarrier})
			}
			if p.PreStressIters > 0 && rng.Intn(100) < p.PreStressPct {
				prog = b.emitStress(prog, p.PreStressPattern, p.PreStressIters, tid)
			}
			var nextReg uint16
			prog = b.emitRole(prog, tid, 0, r, &nextReg)
			plan.setProgram(tid, prog)
		}
	}

	// Stress workgroups.
	for wg := testingWGs; wg < totalWGs; wg++ {
		if p.MemStressIters == 0 || rng.Intn(100) >= p.MemStressPct {
			continue
		}
		for lane := 0; lane < p.WorkgroupSize; lane++ {
			tid := wg*p.WorkgroupSize + lane
			if p.StressStrategy == Chunked {
				// Pin the thread to a single line for all its accesses.
				line := plan.lineStarts[tid%len(plan.lineStarts)]
				prog := plan.progBuf(tid)
				for k := 0; k < p.MemStressIters; k++ {
					a1 := line + uint32(rng.Intn(p.StressLineSize))
					a2 := line + uint32(rng.Intn(p.StressLineSize))
					prog = appendPattern(prog, p.MemStressPattern, a1, a2)
				}
				plan.setProgram(tid, prog)
				continue
			}
			plan.setProgram(tid, b.emitStress(plan.progBuf(tid), p.MemStressPattern, p.MemStressIters, tid))
		}
	}

	plan.spec = gpu.LaunchSpec{
		WorkgroupSize: p.WorkgroupSize,
		Workgroups:    totalWGs,
		MemWords:      memWords,
		Programs:      plan.programs,
	}
	plan.instances = instances
	return nil
}

// growOutcomeMaps sizes the regOf and locAddr row slices and their flat
// backing arrays for the iteration's instance count, reusing capacity.
// The flat arrays are cleared so stale references from a previous,
// larger iteration can never leak into this one's bookkeeping.
func (plan *iterationPlan) growOutcomeMaps(instances, numRegs, numLocs int) {
	if cap(plan.regOf) < instances {
		plan.regOf = make([][]regRef, instances)
	}
	plan.regOf = plan.regOf[:instances]
	if n := instances * numRegs; cap(plan.regOfFlat) < n {
		plan.regOfFlat = make([]regRef, n)
	} else {
		plan.regOfFlat = plan.regOfFlat[:n]
		clear(plan.regOfFlat)
	}
	for i := range plan.regOf {
		plan.regOf[i] = plan.regOfFlat[i*numRegs : (i+1)*numRegs : (i+1)*numRegs]
	}

	if cap(plan.locAddr) < instances {
		plan.locAddr = make([][]uint32, instances)
	}
	plan.locAddr = plan.locAddr[:instances]
	if n := instances * numLocs; cap(plan.locAddrFlat) < n {
		plan.locAddrFlat = make([]uint32, n)
	} else {
		plan.locAddrFlat = plan.locAddrFlat[:n]
	}
	for i := range plan.locAddr {
		plan.locAddr[i] = plan.locAddrFlat[i*numLocs : (i+1)*numLocs : (i+1)*numLocs]
	}
}

// growPrograms sizes the per-thread program table. programs entries are
// reset to nil (threads not assigned a program this iteration must stay
// empty); progBufs keeps every buffer ever grown for reuse.
func (plan *iterationPlan) growPrograms(nThreads int) {
	if cap(plan.programs) < nThreads {
		plan.programs = make([]gpu.Program, nThreads)
	}
	plan.programs = plan.programs[:nThreads]
	clear(plan.programs)
	if cap(plan.progBufs) < nThreads {
		grown := make([][]gpu.Instr, nThreads)
		copy(grown, plan.progBufs[:cap(plan.progBufs)])
		plan.progBufs = grown
	} else {
		plan.progBufs = plan.progBufs[:nThreads]
	}
}

func appendPattern(prog gpu.Program, pattern StressPattern, a1, a2 uint32) gpu.Program {
	switch pattern {
	case StoreStore:
		return append(prog,
			gpu.Instr{Op: gpu.OpStressStore, Addr: a1, Imm: 1},
			gpu.Instr{Op: gpu.OpStressStore, Addr: a2, Imm: 1})
	case StoreLoad:
		return append(prog,
			gpu.Instr{Op: gpu.OpStressStore, Addr: a1, Imm: 1},
			gpu.Instr{Op: gpu.OpStressLoad, Addr: a2})
	case LoadStore:
		return append(prog,
			gpu.Instr{Op: gpu.OpStressLoad, Addr: a1},
			gpu.Instr{Op: gpu.OpStressStore, Addr: a2, Imm: 1})
	default:
		return append(prog,
			gpu.Instr{Op: gpu.OpStressLoad, Addr: a1},
			gpu.Instr{Op: gpu.OpStressLoad, Addr: a2})
	}
}

// BuildKernel exposes one iteration's kernel construction for external
// tooling (e.g. tracing a single instance): it validates the
// environment, builds the iteration plan, and returns the launch spec.
func BuildKernel(test *litmus.Test, p *Params, rng *xrand.Rand) (*gpu.LaunchSpec, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	plan, err := buildIteration(test, p, rng)
	if err != nil {
		return nil, err
	}
	return &plan.spec, nil
}
