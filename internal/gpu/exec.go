package gpu

// The data-oriented executor.
//
// The simulator's inner loop used to interpret the kernel IR through a
// graph of *threadState/*warpState/*cuState objects: every tick walked
// pointers, re-derived cache-line indices with a division, switched on
// the op code, rescanned every warp of every CU for runnable threads,
// and kept completion events in a binary heap. This file replaces that
// with flat, index-addressed state:
//
//   - struct-of-arrays thread/warp/CU state (ip/ipEnd/outst/atBarrier/
//     done are parallel slices indexed by thread ID) so the scheduler
//     walks contiguous memory;
//   - a precompiled step table: each instruction is decoded once per
//     launch into a stepInstr carrying its cache line, base latency and
//     dispatch flags, so issue and completion never switch on the op
//     or divide by the line size;
//   - incremental runnable-warp tracking: per-warp runnable counters
//     roll up into per-CU counters and a live-CU count, replacing the
//     O(all warps × all threads) anyRunnable rescan every CU did every
//     tick;
//   - a per-warp blocked lane mask: a lane whose head step cannot issue
//     until one of its in-flight ops completes (a memory op against a
//     full MaxOutstanding queue, a fence or barrier waiting on outst >
//     0) is set in it and skipped by the issue loop until complete()
//     clears it, so a saturated warp costs nothing per tick;
//   - a timing wheel (calendar queue) for completion events in place
//     of the binary heap: O(1) push, O(1) drain of the current tick's
//     bucket, and a bitmap scan to fast-forward e.now across idle gaps;
//   - a launch-frame cache: the warp partition, thread→wg/warp maps and
//     the initial round-robin admission plan depend only on the launch
//     shape (Workgroups × WorkgroupSize), not on program bytes, so
//     repeated launches of the same shape — the steady-state campaign
//     case — skip that rebuild entirely.
//
// Everything observable is byte-identical to the old interpreter: the
// RNG draw sequence (one Intn per CU with candidates per tick, jitter/
// pressure/bug draws per memory op), trace events, stats, final
// registers and memory. The golden tests in golden_test.go, captured
// from the old implementation, pin this contract; DESIGN.md documents
// the frozen-draw-order invariant any future change must preserve.

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/xrand"
)

// stepFlags classifies a decoded instruction for branch-light dispatch.
type stepFlags uint8

const (
	// stepMem marks memory operations (load/store/rmw/stress).
	stepMem stepFlags = 1 << iota
	// stepLoadLike marks ops that complete as loads (OpLoad,
	// OpStressLoad) for program-order-per-location tracking.
	stepLoadLike
	// stepWritesReg marks ops that write a register at completion
	// (OpLoad, OpExchange).
	stepWritesReg
	// stepStoreLike marks ops that write memory at completion
	// (OpStore, OpStressStore).
	stepStoreLike
	// stepFence marks OpFence.
	stepFence
	// stepBarrier marks OpBarrier.
	stepBarrier
)

// stepInstr is one decoded instruction in the per-launch step table:
// the line index and base latency are precomputed so the issue path
// performs no division and no op switch.
type stepInstr struct {
	addr    uint32
	line    uint32
	imm     uint32
	baseLat int32
	reg     uint16
	op      Op
	flags   stepFlags
}

// locAssign remembers the latest assigned completion time per address a
// thread has touched, for program-order-per-location enforcement.
type locAssign struct {
	addr   uint32
	isLoad bool
	time   int64
}

// wheelEvent is one pending memory completion: the issuing thread and
// the instruction's absolute index in the step table. Completion time
// and ordering are implied by the bucket it sits in (see pushEvent).
type wheelEvent struct {
	tid  int32
	code int32
}

// cuCache is the per-CU line cache backing the stale-cache defect; it
// exists only when that bug is enabled.
type cuCache struct {
	lines map[uint32][]uint32
	fifo  []uint32
}

// launchFrame caches every launch structure that depends only on the
// dispatch shape (Workgroups × WorkgroupSize) and the device profile —
// not on program bytes. Campaign steady state launches the same shape
// every iteration with fresh programs, so the warp partition, the
// thread→workgroup/warp maps and the initial round-robin admission
// plan are computed once and reused; reset only copies the mutable
// parts back to their initial values.
type launchFrame struct {
	workgroups int
	wgSize     int
	warpsPerWG int
	nWarps     int

	warpStart []int32 // warp → first thread ID
	warpEnd   []int32 // warp → one past last thread ID
	warpWG    []int32 // warp → workgroup
	wgOf      []int32 // thread → workgroup (no division at runtime)
	warpOf    []int32 // thread → warp

	wgCU0    []int32   // wg → initially assigned CU, or -1 if pending
	cuWarps0 [][]int32 // CU → initially resident warps, admission order
	cuFree0  []int32   // CU → free slots after initial admission
	pending0 []int32   // workgroups awaiting a CU slot, in order
}

// buildFrame replays the old reset's round-robin admission over the
// shape only, producing the cached plan.
func buildFrame(workgroups, wgSize, warpSize, maxWGPerCU, nCUs int) *launchFrame {
	warpsPerWG := (wgSize + warpSize - 1) / warpSize
	nThreads := workgroups * wgSize
	f := &launchFrame{
		workgroups: workgroups,
		wgSize:     wgSize,
		warpsPerWG: warpsPerWG,
		nWarps:     workgroups * warpsPerWG,
		warpStart:  make([]int32, workgroups*warpsPerWG),
		warpEnd:    make([]int32, workgroups*warpsPerWG),
		warpWG:     make([]int32, workgroups*warpsPerWG),
		wgOf:       make([]int32, nThreads),
		warpOf:     make([]int32, nThreads),
		wgCU0:      make([]int32, workgroups),
		cuWarps0:   make([][]int32, nCUs),
		cuFree0:    make([]int32, nCUs),
		pending0:   nil,
	}
	for wg := 0; wg < workgroups; wg++ {
		for k := 0; k < warpsPerWG; k++ {
			w := wg*warpsPerWG + k
			start := wg*wgSize + k*warpSize
			end := start + warpSize
			if end > (wg+1)*wgSize {
				end = (wg + 1) * wgSize
			}
			f.warpStart[w] = int32(start)
			f.warpEnd[w] = int32(end)
			f.warpWG[w] = int32(wg)
		}
		for l := 0; l < wgSize; l++ {
			tid := wg*wgSize + l
			f.wgOf[tid] = int32(wg)
			f.warpOf[tid] = int32(wg*warpsPerWG + l/warpSize)
		}
	}
	for c := range f.cuFree0 {
		f.cuFree0[c] = int32(maxWGPerCU)
	}
	cu := 0
	for wg := 0; wg < workgroups; wg++ {
		placed := false
		for probe := 0; probe < nCUs; probe++ {
			c := (cu + probe) % nCUs
			if f.cuFree0[c] > 0 {
				f.cuFree0[c]--
				f.wgCU0[wg] = int32(c)
				for k := 0; k < warpsPerWG; k++ {
					f.cuWarps0[c] = append(f.cuWarps0[c], int32(wg*warpsPerWG+k))
				}
				cu = (cu + probe + 1) % nCUs
				placed = true
				break
			}
		}
		if !placed {
			f.wgCU0[wg] = -1
			f.pending0 = append(f.pending0, int32(wg))
		}
	}
	return f
}

// exec is the reusable executor scratch a Device owns. All state is
// struct-of-arrays, indexed by thread/warp/workgroup/CU ID.
type exec struct {
	d    *Device
	rng  *xrand.Rand
	spec LaunchSpec

	// ctx, when non-nil, is the launch's cancellation context; run()
	// polls it on a coarse step budget. It is set around run() by RunCtx
	// and cleared afterward so the scratch never retains a caller's ctx.
	ctx context.Context

	mem []uint32

	// Profile scalars cached flat so the hot loop never chases the
	// profile pointer, plus per-op decode tables (latency and flags are
	// pure functions of the op for a fixed profile).
	maxOutstanding int32
	jitterBase     int
	globalThresh   int
	globalWeight   float64
	lineThresh     int
	lineWeight     float64
	maxPressure    int
	lineWords      uint32
	opLat          [8]int32
	opFlags        [8]stepFlags
	dropFences     bool

	frame *launchFrame

	// Step table: decoded instructions for every thread, concatenated.
	// ipStart[tid]..ipEnd[tid] is thread tid's window; ip[tid] is its
	// program counter as an absolute index into code.
	code    []stepInstr
	ipStart []int32
	ip      []int32
	ipEnd   []int32

	// Per-thread state.
	outst     []int32
	atBarrier []bool
	done      []bool
	locs      [][]locAssign
	regs      [][]uint32 // per-thread windows into regArena; also the result
	regArena  []uint32

	// Per-workgroup state.
	wgCU      []int32
	wgActive  []int32
	wgArrived []int32

	// Per-warp and per-CU incremental runnable tracking. A thread is
	// runnable iff ip < ipEnd && !atBarrier; warpMask holds one bit per
	// lane (warps never exceed 64 lanes), cuRunnable counts resident
	// warps with a nonzero mask, liveCUs counts CUs with a nonzero
	// count. The scheduler consults masks and counters instead of
	// rescanning threads, and the issue loop walks only set bits.
	// blocked marks runnable lanes whose head step waits on their own
	// in-flight ops; it narrows the issue scan but never the scheduler's
	// candidate draw, so RNG consumption does not depend on it.
	warpMask   []uint64
	blocked    []uint64
	cuWarps    [][]int32
	cuFree     []int32
	cuRunnable []int32
	liveCUs    int

	caches []cuCache // stale-cache defect state; nil when bug disabled

	pendingWGs  []int32
	pendingHead int

	// Timing wheel: completion events bucketed by time & wheelMask.
	// Every pending time lies in (now, now+maxEventLat], and the wheel
	// is sized past that horizon, so each bucket holds at most one
	// distinct absolute time (bucketTime) and draining tick T is
	// exactly draining bucket T&mask. Within a bucket, append order is
	// issue order, which reproduces the old heap's (time, seq) order.
	buckets       [][]wheelEvent
	bucketTime    []int64
	bucketBits    []uint64
	wheelMask     int64
	maxEventLat   int64
	pendingEvents int

	now int64

	inFlight     int
	lineInFlight []int32

	retired int
	stats   RunStats

	candBuf []int32 // scratch for scheduler candidates

	// lineBufs is a free list of cache-line staging buffers, refilled
	// on eviction and reset so fillLine stops allocating per line.
	lineBufs [][]uint32

	// res is the result scratch returned to the caller; overwritten by
	// the next run.
	res RunResult

	// tracing gates event recording. Call sites guard emit with it so
	// the tracing-off hot path pays one branch and never constructs
	// (or heap-allocates for) the event value.
	tracing bool
	trace   []TraceEvent
}

// emit records a trace event. Callers must check e.tracing first; emit
// itself appends unconditionally.
func (e *exec) emit(ev TraceEvent) {
	e.trace = append(e.trace, ev)
}

// getExec returns the device's reusable executor, reset for this
// launch. The executor — including the RunResult it produces — is
// scratch owned by the device and is clobbered by the next run.
func (d *Device) getExec(spec LaunchSpec, rng *xrand.Rand) *exec {
	e := d.scratch
	if e == nil {
		e = &exec{d: d}
		p := &d.prof
		e.maxOutstanding = int32(p.MaxOutstanding)
		e.jitterBase = p.JitterBase
		e.globalThresh = p.GlobalPressureThresh
		e.globalWeight = p.GlobalPressureWeight
		e.lineThresh = p.LinePressureThresh
		e.lineWeight = p.LinePressureWeight
		e.maxPressure = p.MaxPressureLat
		e.lineWords = uint32(p.LineWords)
		e.dropFences = d.bugs.DropFences
		for op := OpLoad; op <= OpStressStore; op++ {
			var lat int32 = 1
			var fl stepFlags
			switch op {
			case OpLoad:
				lat, fl = int32(p.LatLoad), stepMem|stepLoadLike|stepWritesReg
			case OpStressLoad:
				lat, fl = int32(p.LatLoad), stepMem|stepLoadLike
			case OpStore:
				lat, fl = int32(p.LatStore), stepMem|stepStoreLike
			case OpStressStore:
				lat, fl = int32(p.LatStore), stepMem|stepStoreLike
			case OpExchange:
				lat, fl = int32(p.LatRMW), stepMem|stepWritesReg
			case OpFence:
				fl = stepFence
			case OpBarrier:
				fl = stepBarrier
			}
			e.opLat[op] = lat
			e.opFlags[op] = fl
		}
		// Wheel horizon: a completion scheduled at tick T satisfies
		// T - now <= maxLat + jitter + maxPressure (the po-loc bump of
		// +1 past a predecessor cannot exceed it either, because the
		// predecessor issued at least one tick earlier with the same
		// bound). Size the wheel one power of two past that horizon so
		// buckets never carry two distinct times.
		maxBase := p.LatLoad
		if p.LatStore > maxBase {
			maxBase = p.LatStore
		}
		if p.LatRMW > maxBase {
			maxBase = p.LatRMW
		}
		e.maxEventLat = int64(maxBase + p.JitterBase + p.MaxPressureLat)
		size := 1
		for int64(size) < e.maxEventLat+2 {
			size <<= 1
		}
		e.buckets = make([][]wheelEvent, size)
		e.bucketTime = make([]int64, size)
		e.bucketBits = make([]uint64, (size+63)/64)
		e.wheelMask = int64(size - 1)

		// CU count and defect set are fixed per device, so the buggy
		// caches are allocated exactly once.
		e.cuWarps = make([][]int32, p.CUs)
		e.cuFree = make([]int32, p.CUs)
		e.cuRunnable = make([]int32, p.CUs)
		if d.bugs.StaleCache {
			e.caches = make([]cuCache, p.CUs)
			for i := range e.caches {
				e.caches[i].lines = map[uint32][]uint32{}
			}
		}
		d.scratch = e
	}
	e.reset(spec, rng)
	return e
}

// growI32 re-slices s to length n, growing capacity as needed. The
// contents are unspecified; callers must fill every element.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// reset prepares the executor for one launch, reusing every allocation
// left over from prior runs: all state slices keep their capacity,
// register files are carved from one flat arena, the timing wheel and
// scheduler scratch retain their buffers, and the launch frame (warp
// partition + admission plan) is reused outright when the dispatch
// shape matches the previous launch. Resetting consumes no randomness
// and zeroes everything a fresh executor would zero, so a warm
// executor is draw-for-draw and bit-for-bit identical to a cold one.
func (e *exec) reset(spec LaunchSpec, rng *xrand.Rand) {
	e.rng = rng
	e.spec = spec

	if cap(e.mem) < spec.MemWords {
		e.mem = make([]uint32, spec.MemWords)
	} else {
		e.mem = e.mem[:spec.MemWords]
		clear(e.mem)
	}

	f := e.frame
	if f == nil || f.workgroups != spec.Workgroups || f.wgSize != spec.WorkgroupSize {
		f = buildFrame(spec.Workgroups, spec.WorkgroupSize,
			e.d.prof.WarpSize, e.d.prof.MaxWGPerCU, len(e.cuWarps))
		e.frame = f
	}
	nThreads := spec.Threads()

	// Decode every program into the step table in one fused pass that
	// also computes register demand (the old reset scanned each program
	// twice more for NumRegs).
	e.ipStart = growI32(e.ipStart, nThreads)
	e.ip = growI32(e.ip, nThreads)
	e.ipEnd = growI32(e.ipEnd, nThreads)
	e.outst = growI32(e.outst, nThreads)
	e.atBarrier = growBool(e.atBarrier, nThreads)
	e.done = growBool(e.done, nThreads)
	if cap(e.regs) < nThreads {
		e.regs = make([][]uint32, nThreads)
	}
	e.regs = e.regs[:nThreads]
	if cap(e.locs) < nThreads {
		grown := make([][]locAssign, nThreads)
		copy(grown, e.locs[:cap(e.locs)])
		e.locs = grown
	}
	e.locs = e.locs[:nThreads]

	total := 0
	for _, p := range spec.Programs {
		total += len(p)
	}
	if cap(e.code) < total {
		e.code = make([]stepInstr, total)
	}
	e.code = e.code[:total]

	// One fused per-instruction pass decodes into the step table and
	// computes register demand together (the old reset walked every
	// program once for NumRegs and again to build thread state).
	lw := e.lineWords
	totalRegs := 0
	pos := int32(0)
	for tid, p := range spec.Programs {
		e.ipStart[tid] = pos
		n := int32(0)
		for _, in := range p {
			e.code[pos] = stepInstr{
				addr:    in.Addr,
				line:    in.Addr / lw,
				imm:     in.Imm,
				baseLat: e.opLat[in.Op&7],
				reg:     in.Reg,
				op:      in.Op,
				flags:   e.opFlags[in.Op&7],
			}
			if (in.Op == OpLoad || in.Op == OpExchange) && int32(in.Reg)+1 > n {
				n = int32(in.Reg) + 1
			}
			pos++
		}
		// Stash the register count in outst until the arena is carved
		// below (outst is rewritten right after).
		e.outst[tid] = n
		totalRegs += int(n)
	}
	if cap(e.regArena) < totalRegs {
		e.regArena = make([]uint32, totalRegs)
	} else {
		e.regArena = e.regArena[:totalRegs]
		clear(e.regArena)
	}

	e.retired = 0
	regOff := 0
	e.wgCU = growI32(e.wgCU, spec.Workgroups)
	e.wgActive = growI32(e.wgActive, spec.Workgroups)
	e.wgArrived = growI32(e.wgArrived, spec.Workgroups)
	copy(e.wgCU, f.wgCU0)
	for wg := range e.wgActive {
		e.wgActive[wg] = 0
		e.wgArrived[wg] = 0
	}
	if cap(e.warpMask) < f.nWarps {
		e.warpMask = make([]uint64, f.nWarps)
		e.blocked = make([]uint64, f.nWarps)
	}
	e.warpMask = e.warpMask[:f.nWarps]
	e.blocked = e.blocked[:f.nWarps]
	clear(e.warpMask)
	clear(e.blocked)

	for tid, p := range spec.Programs {
		nregs := int(e.outst[tid])
		start := e.ipStart[tid]
		e.ip[tid] = start
		e.ipEnd[tid] = start + int32(len(p))
		e.outst[tid] = 0
		e.atBarrier[tid] = false
		if nregs > 0 {
			e.regs[tid] = e.regArena[regOff : regOff+nregs : regOff+nregs]
			regOff += nregs
		} else {
			e.regs[tid] = nil
		}
		e.locs[tid] = e.locs[tid][:0]
		if len(p) == 0 {
			e.done[tid] = true
			e.retired++
		} else {
			e.done[tid] = false
			e.wgActive[f.wgOf[tid]]++
			w := f.warpOf[tid]
			e.warpMask[w] |= 1 << uint(int32(tid)-f.warpStart[w])
		}
	}

	// CU state: copy the cached admission plan and roll runnable
	// counters up from the warps.
	e.liveCUs = 0
	for c := range e.cuWarps {
		init := f.cuWarps0[c]
		if cap(e.cuWarps[c]) < len(init) {
			e.cuWarps[c] = make([]int32, len(init))
		}
		e.cuWarps[c] = e.cuWarps[c][:len(init)]
		copy(e.cuWarps[c], init)
		e.cuFree[c] = f.cuFree0[c]
		run := int32(0)
		for _, w := range init {
			if e.warpMask[w] != 0 {
				run++
			}
		}
		e.cuRunnable[c] = run
		if run > 0 {
			e.liveCUs++
		}
		if e.caches != nil {
			cc := &e.caches[c]
			for _, vals := range cc.lines {
				e.lineBufs = append(e.lineBufs, vals)
			}
			clear(cc.lines)
			cc.fifo = cc.fifo[:0]
		}
	}

	if cap(e.pendingWGs) < len(f.pending0) {
		e.pendingWGs = make([]int32, len(f.pending0))
	}
	e.pendingWGs = e.pendingWGs[:len(f.pending0)]
	copy(e.pendingWGs, f.pending0)
	e.pendingHead = 0

	// The wheel is empty after a completed run (threads only retire
	// once their ops complete); after an error or cancellation it may
	// not be, so clear via the occupancy bitmap.
	if e.pendingEvents > 0 {
		for wi, word := range e.bucketBits {
			for word != 0 {
				b := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				e.buckets[b] = e.buckets[b][:0]
			}
			e.bucketBits[wi] = 0
		}
	}
	e.pendingEvents = 0
	e.now = 0
	e.inFlight = 0

	lines := (spec.MemWords + int(lw) - 1) / int(lw)
	if cap(e.lineInFlight) < lines {
		e.lineInFlight = make([]int32, lines)
	} else {
		e.lineInFlight = e.lineInFlight[:lines]
		clear(e.lineInFlight)
	}
	e.stats = RunStats{}
}

// result assembles the run's outcome into the executor-owned scratch.
func (e *exec) result() *RunResult {
	e.stats.Ticks = e.now
	e.res = RunResult{
		Registers:  e.regs,
		Memory:     e.mem,
		SimSeconds: float64(e.now+e.d.prof.LaunchOverheadTicks) / e.d.prof.ClockHz,
		Stats:      e.stats,
	}
	return &e.res
}

// ---- incremental runnable tracking ----

// decRunnable records that thread tid stopped being runnable (its ip
// reached ipEnd or it parked at a barrier).
func (e *exec) decRunnable(tid int32) {
	w := e.frame.warpOf[tid]
	m := e.warpMask[w] &^ (1 << uint(tid-e.frame.warpStart[w]))
	e.warpMask[w] = m
	if m == 0 {
		c := e.wgCU[e.frame.warpWG[w]]
		e.cuRunnable[c]--
		if e.cuRunnable[c] == 0 {
			e.liveCUs--
		}
	}
}

// incRunnable records that thread tid became runnable again (barrier
// release with instructions remaining).
func (e *exec) incRunnable(tid int32) {
	w := e.frame.warpOf[tid]
	if e.warpMask[w] == 0 {
		c := e.wgCU[e.frame.warpWG[w]]
		if e.cuRunnable[c] == 0 {
			e.liveCUs++
		}
		e.cuRunnable[c]++
	}
	e.warpMask[w] |= 1 << uint(tid-e.frame.warpStart[w])
}

// cancelCheckSteps is the executor's cancellation poll granularity:
// one non-blocking ctx check per this many scheduler steps. Coarse on
// purpose — a per-step check would put a channel select on the hottest
// loop in the simulator — yet a hung-but-below-watchdog kernel still
// stops within thousands of steps (microseconds of host time) of a
// cancel, far below the watchdog's tick deadline.
const cancelCheckSteps = 4096

func (e *exec) run() error {
	total := len(e.ip)
	deadline := e.d.watchdogDeadline()
	var cancelled <-chan struct{}
	if e.ctx != nil {
		cancelled = e.ctx.Done() // nil for context.Background(); the select then never fires
	}
	check := 1 // check on the first step so a pre-cancelled ctx fails fast
	for e.retired < total {
		if check--; check <= 0 {
			check = cancelCheckSteps
			select {
			case <-cancelled:
				return fmt.Errorf("gpu: kernel cancelled at tick %d on %s: %w",
					e.now, e.d.prof.ShortName, e.ctx.Err())
			default:
			}
		}
		if e.now > deadline {
			// The watchdog converts a hung kernel into a typed, retryable
			// failure instead of spinning toward the simulation bound.
			return &DeviceError{Kind: FaultHang, Device: e.d.prof.ShortName, Tick: e.now}
		}
		// Drain this tick's completions in one batch. Events are never
		// scheduled in the past and e.now only lands on ticks that hold
		// work, so the current bucket is the entire ≤ now backlog.
		// complete() never schedules new events, so iterating the
		// detached slice is safe.
		if e.pendingEvents > 0 {
			b := int(e.now & e.wheelMask)
			if e.bucketBits[b>>6]&(1<<(uint(b)&63)) != 0 && e.bucketTime[b] == e.now {
				evs := e.buckets[b]
				e.buckets[b] = evs[:0]
				e.bucketBits[b>>6] &^= 1 << (uint(b) & 63)
				e.pendingEvents -= len(evs)
				for _, ev := range evs {
					e.complete(ev.tid, ev.code)
				}
			}
		}
		issued := false
		if e.liveCUs > 0 {
			for c := range e.cuWarps {
				if e.cuRunnable[c] == 0 {
					continue
				}
				cand := e.candBuf[:0]
				for _, w := range e.cuWarps[c] {
					if e.warpMask[w] != 0 {
						cand = append(cand, w)
					}
				}
				e.candBuf = cand
				// cuRunnable > 0 guarantees candidates; Intn(0) would
				// panic loudly on a bookkeeping bug.
				w := cand[e.rng.Intn(len(cand))]
				if e.issueWarp(w, int32(c)) {
					issued = true
				}
			}
		}
		if issued {
			e.now++
			continue
		}
		if e.pendingEvents > 0 {
			// Fast-forward across the idle gap to the next completion.
			e.now = e.nextEventTime()
			continue
		}
		if e.retired < total {
			return fmt.Errorf("gpu: deadlock at tick %d: %d/%d threads retired",
				e.now, e.retired, total)
		}
	}
	return nil
}

// issueWarp walks the drawn warp's runnable, unblocked threads in lane
// order, issuing at most one instruction per thread. The runnable mask
// makes done and barrier-parked lanes cost nothing, and the blocked
// mask does the same for lanes waiting on their own in-flight ops —
// together the dominant cases in the steady state: the loop touches
// only lanes that can issue, plus each lane's first failed try. A
// failed try has no side effects and only a completion can undo it, so
// skipping the repeats changes nothing observable. The masks are
// re-read every step because a barrier retiring mid-warp releases
// parked lanes; the passed boundary restricts the re-read to lanes
// after the releasing one, matching the old sequential scan, where
// earlier lanes had already taken (and failed) their turn this tick.
func (e *exec) issueWarp(w, c int32) bool {
	issued := false
	start := e.frame.warpStart[w]
	var passed uint64 // lanes at or below the scan point
	for {
		m := e.warpMask[w] &^ e.blocked[w] &^ passed
		if m == 0 {
			return issued
		}
		lane := bits.TrailingZeros64(m)
		passed |= (2 << uint(lane)) - 1
		tid := start + int32(lane)
		ip := e.ip[tid]
		in := &e.code[ip]
		if in.flags&stepMem != 0 {
			if e.outst[tid] >= e.maxOutstanding {
				e.blocked[w] |= 1 << uint(lane)
				continue
			}
			e.issueMem(tid, ip, in)
			issued = true
			continue
		}
		if e.issueSync(tid, ip, in) {
			issued = true
		} else {
			e.blocked[w] |= 1 << uint(lane)
		}
	}
}

// issueSync processes a fence or barrier step at the front of thread
// tid's program; it returns whether the step retired this tick.
func (e *exec) issueSync(tid, ip int32, in *stepInstr) bool {
	if in.flags&stepFence != 0 {
		if e.dropFences {
			// The buggy compiler erased the fence's memory semantics;
			// it costs an issue slot but orders nothing.
			e.ip[tid] = ip + 1
			if ip+1 == e.ipEnd[tid] {
				e.decRunnable(tid)
			}
			e.stats.DroppedFences++
			e.stats.Instructions++
			e.maybeRetire(tid)
			return true
		}
		if e.outst[tid] > 0 {
			return false // fence waits for all prior ops to complete
		}
		if e.tracing {
			e.emit(TraceEvent{Tick: e.now, Thread: tid, Index: ip - e.ipStart[tid], Kind: TraceIssue, Op: OpFence})
		}
		e.ip[tid] = ip + 1
		if ip+1 == e.ipEnd[tid] {
			e.decRunnable(tid)
		}
		e.stats.Instructions++
		e.maybeRetire(tid)
		return true
	}
	// Barrier.
	if e.outst[tid] > 0 {
		return false // barrier implies fence ordering
	}
	if e.tracing {
		e.emit(TraceEvent{Tick: e.now, Thread: tid, Index: ip - e.ipStart[tid], Kind: TraceIssue, Op: OpBarrier})
	}
	e.ip[tid] = ip + 1
	e.stats.Instructions++
	wg := e.frame.wgOf[tid]
	e.atBarrier[tid] = true
	e.decRunnable(tid)
	e.wgArrived[wg]++
	e.releaseBarrierIfReady(wg)
	return true
}

// issueMem issues one memory operation whose MaxOutstanding headroom
// the caller already checked.
func (e *exec) issueMem(tid, ip int32, in *stepInstr) {
	line := in.line
	lat, pstall := e.latency(in, line)
	e.stats.PressureStalls += pstall
	ct := e.now + int64(lat)
	if ct <= e.now {
		ct = e.now + 1
	}
	isLoad := in.flags&stepLoadLike != 0
	locs := e.locs[tid]
	var prev *locAssign
	for i := range locs {
		if locs[i].addr == in.addr {
			prev = &locs[i]
			break
		}
	}
	if prev != nil {
		if ct <= prev.time {
			if isLoad && prev.isLoad && e.coherenceRRFires(line) {
				// Injected defect: the second load completes before the
				// first, violating program order per location.
				e.stats.RelaxedRR++
			} else {
				ct = prev.time + 1
			}
		}
		if ct > prev.time {
			prev.time = ct
		}
		prev.isLoad = isLoad
	} else {
		e.locs[tid] = append(locs, locAssign{addr: in.addr, isLoad: isLoad, time: ct})
	}
	e.pushEvent(ct, tid, ip)
	if e.tracing {
		e.emit(TraceEvent{Tick: e.now, Thread: tid, Index: ip - e.ipStart[tid], Kind: TraceIssue, Op: in.op, Addr: in.addr})
	}
	e.ip[tid] = ip + 1
	if ip+1 == e.ipEnd[tid] {
		e.decRunnable(tid)
	}
	e.outst[tid]++
	e.inFlight++
	if e.inFlight > e.stats.MaxGlobalInFlight {
		e.stats.MaxGlobalInFlight = e.inFlight
	}
	e.lineInFlight[line]++
	e.stats.Instructions++
}

// coherenceRRFires decides whether the load-load reordering defect
// triggers for an access to the given line.
func (e *exec) coherenceRRFires(line uint32) bool {
	b := &e.d.bugs
	if !b.CoherenceRR {
		return false
	}
	if int(e.lineInFlight[line]) < b.CoherenceRRPressure {
		return false
	}
	return e.rng.Bool(b.CoherenceRRProb)
}

// latency samples an operation's completion latency, including
// contention-dependent inflation. The base latency is precomputed in
// the step table, so only the jitter and pressure draws remain.
func (e *exec) latency(in *stepInstr, line uint32) (int, int64) {
	lat := int(in.baseLat)
	if e.jitterBase > 0 {
		lat += e.rng.Intn(e.jitterBase + 1)
	}
	pressure := 0.0
	if g := e.inFlight - e.globalThresh; g > 0 {
		pressure += e.globalWeight * float64(g)
	}
	if l := int(e.lineInFlight[line]) - e.lineThresh; l > 0 {
		pressure += e.lineWeight * float64(l)
	}
	if pressure <= 0 {
		return lat, 0
	}
	extra := int(e.rng.Float64() * pressure)
	if extra > e.maxPressure {
		extra = e.maxPressure
	}
	return lat + extra, int64(extra)
}

// complete applies one finished memory operation.
func (e *exec) complete(tid, code int32) {
	in := &e.code[code]
	var traced uint32
	switch {
	case in.flags&stepLoadLike != 0:
		v := e.loadValue(e.wgCU[e.frame.wgOf[tid]], in.addr)
		if in.flags&stepWritesReg != 0 {
			e.regs[tid][in.reg] = v
		}
		traced = v
	case in.flags&stepStoreLike != 0:
		e.mem[in.addr] = in.imm
		e.storeToCache(e.wgCU[e.frame.wgOf[tid]], in.addr, in.imm)
		traced = in.imm
	default: // OpExchange
		// Atomics bypass the per-CU cache and act on memory directly,
		// as on real parts where RMWs resolve at a shared cache level.
		old := e.mem[in.addr]
		e.mem[in.addr] = in.imm
		e.regs[tid][in.reg] = old
		e.storeToCache(e.wgCU[e.frame.wgOf[tid]], in.addr, in.imm)
		traced = old
	}
	if e.tracing {
		e.emit(TraceEvent{Tick: e.now, Thread: tid, Index: code - e.ipStart[tid], Kind: TraceComplete, Op: in.op, Addr: in.addr, Value: traced})
	}
	e.outst[tid]--
	// The head step may now issue. Clearing unconditionally is safe: a
	// lane still waiting (a fence with ops left) just re-blocks on its
	// next visit.
	w := e.frame.warpOf[tid]
	e.blocked[w] &^= 1 << uint(tid-e.frame.warpStart[w])
	e.inFlight--
	e.lineInFlight[in.line]--
	e.stats.MemOps++
	e.maybeRetire(tid)
}

// loadValue resolves a load's value, via the (buggy) per-CU cache when
// the stale-cache defect is enabled.
func (e *exec) loadValue(cu int32, addr uint32) uint32 {
	if e.caches == nil {
		return e.mem[addr]
	}
	c := &e.caches[cu]
	line := addr / e.lineWords
	off := addr % e.lineWords
	if vals, ok := c.lines[line]; ok {
		if e.rng.Bool(e.d.prof.StaleHitProb) {
			v := vals[off]
			if v != e.mem[addr] {
				e.stats.StaleReads++
			}
			return v
		}
		// A bypassing read: the value comes from memory but the resident
		// line is not refreshed — on the buggy device nothing ever
		// re-validates it.
		return e.mem[addr]
	}
	e.fillLine(c, line)
	return e.mem[addr]
}

// fillLine snapshots a line into the CU cache, evicting FIFO. Staging
// buffers cycle through the executor's free list: evicted lines donate
// their buffer back, so steady-state fills allocate nothing. The FIFO
// compacts in place rather than re-slicing forward, which would migrate
// the slice base and force append to reallocate.
func (e *exec) fillLine(c *cuCache, line uint32) {
	prof := &e.d.prof
	if _, ok := c.lines[line]; !ok {
		if len(c.fifo) >= prof.CacheLines && len(c.fifo) > 0 {
			victim := c.fifo[0]
			copy(c.fifo, c.fifo[1:])
			c.fifo = c.fifo[:len(c.fifo)-1]
			if vals, ok := c.lines[victim]; ok {
				e.lineBufs = append(e.lineBufs, vals)
			}
			delete(c.lines, victim)
		}
		c.fifo = append(c.fifo, line)
	}
	base := line * e.lineWords
	var vals []uint32
	if n := len(e.lineBufs); n > 0 {
		vals = e.lineBufs[n-1][:prof.LineWords]
		e.lineBufs = e.lineBufs[:n-1]
	} else {
		vals = make([]uint32, prof.LineWords)
	}
	for i := range vals {
		if int(base)+i < len(e.mem) {
			vals[i] = e.mem[int(base)+i]
		} else {
			vals[i] = 0
		}
	}
	c.lines[line] = vals
}

// storeToCache updates the storing CU's own copy of the line. A
// conformant device would also invalidate every other CU's copy; the
// stale-cache defect is precisely the absence of that invalidation, and
// caches only exist when the defect is enabled.
func (e *exec) storeToCache(cu int32, addr, val uint32) {
	if e.caches == nil {
		return
	}
	c := &e.caches[cu]
	line := addr / e.lineWords
	if vals, ok := c.lines[line]; ok {
		vals[addr%e.lineWords] = val
	}
}

// maybeRetire retires a thread whose program and outstanding ops are
// exhausted, releasing barriers and CU slots as workgroups drain.
func (e *exec) maybeRetire(tid int32) {
	if e.done[tid] || e.ip[tid] < e.ipEnd[tid] || e.outst[tid] > 0 {
		return
	}
	e.done[tid] = true
	e.retired++
	wg := e.frame.wgOf[tid]
	e.wgActive[wg]--
	e.releaseBarrierIfReady(wg)
	if e.wgActive[wg] == 0 {
		e.finishWorkgroup(wg)
	}
}

// releaseBarrierIfReady releases a workgroup barrier once every still
// active thread has arrived, restoring released threads' runnability.
func (e *exec) releaseBarrierIfReady(wg int32) {
	if e.wgArrived[wg] == 0 || e.wgArrived[wg] < e.wgActive[wg] {
		return
	}
	e.wgArrived[wg] = 0
	start := int32(int(wg) * e.frame.wgSize)
	end := start + int32(e.frame.wgSize)
	for tid := start; tid < end; tid++ {
		if e.atBarrier[tid] {
			e.atBarrier[tid] = false
			if e.ip[tid] < e.ipEnd[tid] {
				e.incRunnable(tid)
			}
		}
	}
}

// finishWorkgroup frees the CU slot and admits a pending workgroup.
func (e *exec) finishWorkgroup(wg int32) {
	c := e.wgCU[wg]
	// Drop the workgroup's warps from the CU's resident list; they are
	// all drained (every thread done), so runnable counters are
	// untouched. Compact in place to keep the backing array.
	keep := e.cuWarps[c][:0]
	for _, w := range e.cuWarps[c] {
		if e.frame.warpWG[w] != wg {
			keep = append(keep, w)
		}
	}
	e.cuWarps[c] = keep
	e.cuFree[c]++
	if e.pendingHead < len(e.pendingWGs) {
		next := e.pendingWGs[e.pendingHead]
		e.pendingHead++
		e.admit(next, c)
	}
}

// admit places a pending workgroup's warps on a CU.
func (e *exec) admit(wg, c int32) {
	e.wgCU[wg] = c
	e.cuFree[c]--
	f := e.frame
	first := int(wg) * f.warpsPerWG
	for k := 0; k < f.warpsPerWG; k++ {
		w := int32(first + k)
		e.cuWarps[c] = append(e.cuWarps[c], w)
		if e.warpMask[w] != 0 {
			if e.cuRunnable[c] == 0 {
				e.liveCUs++
			}
			e.cuRunnable[c]++
		}
	}
}

// ---- timing wheel ----

// pushEvent schedules a completion at tick ct. Each bucket holds one
// distinct absolute time (the wheel spans past the maximum event
// horizon), and append order within a bucket is issue order — exactly
// the (time, seq) order the old binary heap produced.
func (e *exec) pushEvent(ct int64, tid, code int32) {
	if ct-e.now > e.wheelMask {
		// Unreachable by the latency bound; grow defensively so a
		// future latency-model change degrades instead of corrupting.
		e.growWheel(ct)
	}
	b := int(ct & e.wheelMask)
	if e.bucketBits[b>>6]&(1<<(uint(b)&63)) == 0 {
		e.bucketBits[b>>6] |= 1 << (uint(b) & 63)
		e.bucketTime[b] = ct
		e.buckets[b] = e.buckets[b][:0]
	}
	e.buckets[b] = append(e.buckets[b], wheelEvent{tid: tid, code: code})
	e.pendingEvents++
}

// nextEventTime returns the earliest pending completion time. Pending
// times all lie in (now, now+horizon], so a circular bitmap scan from
// now+1 visits buckets in increasing time order.
func (e *exec) nextEventTime() int64 {
	start := int((e.now + 1) & e.wheelMask)
	wi := start >> 6
	word := e.bucketBits[wi] &^ ((1 << (uint(start) & 63)) - 1)
	n := len(e.bucketBits)
	for i := 0; i <= n; i++ {
		if word != 0 {
			b := wi<<6 + bits.TrailingZeros64(word)
			return e.bucketTime[b]
		}
		wi++
		if wi == n {
			wi = 0
		}
		word = e.bucketBits[wi]
	}
	panic("gpu: pending events but empty timing wheel")
}

// growWheel doubles the wheel until ct fits, re-bucketing pending
// events by their recorded absolute times (bucket order is preserved
// because rebucketing by time keeps issue order within a time).
func (e *exec) growWheel(ct int64) {
	type pending struct {
		time int64
		evs  []wheelEvent
	}
	var moved []pending
	for wi, word := range e.bucketBits {
		for word != 0 {
			b := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			moved = append(moved, pending{time: e.bucketTime[b], evs: e.buckets[b]})
			e.buckets[b] = nil
		}
		e.bucketBits[wi] = 0
	}
	size := int(e.wheelMask + 1)
	for int64(size) <= ct-e.now+1 {
		size <<= 1
	}
	e.buckets = make([][]wheelEvent, size)
	e.bucketTime = make([]int64, size)
	e.bucketBits = make([]uint64, (size+63)/64)
	e.wheelMask = int64(size - 1)
	e.pendingEvents = 0
	for _, p := range moved {
		for _, ev := range p.evs {
			e.pushEvent(p.time, ev.tid, ev.code)
		}
	}
}
