package vm

import (
	"fmt"
	"math"
	"sync"

	"maligo/internal/clc/ir"
	"maligo/internal/clc/types"
)

// This file implements the tier-3 lane engine: work-items execute in
// lock-step SIMT batches of LaneWidth lanes over a block program built
// from the same pre-decode as the compiled engine (genPure). Register
// files are laid out structure-of-arrays — slot s of lane l lives at
// index s*LaneWidth+l — so the per-instruction inner loops run over
// contiguous memory, and each block dispatch, profile delta and
// instruction decode is amortized across the whole batch.
//
// The engine must be observationally identical to the serial engines
// for every race-free kernel: same memory contents, same Profile,
// same observer callback stream (order included — the L2 model is
// stateful and traces are byte-compared), same error at the same
// point. Lock-step execution reorders work between items, so identity
// is recovered by replay: effectful per-lane events (observer records,
// per-lane step counts, faults) are buffered during a segment and
// re-emitted in serial item order afterwards, reconstructing exactly
// what the interpreter would have done — including ErrStepLimit
// truncation against the group-cumulative step budget. Divergent
// control flow runs under an active-lane mask with min-pc block
// scheduling (jump targets are always block starts, so lanes re-merge
// at post-dominator pcs); barriers are full-batch sync points using
// the same phase protocol as the serial engines. Kernels containing
// atomics fall back to the compiled engine for the whole group:
// lock-step atomic interleaving cannot be bit-identical to serial
// execution. Racy kernels are undefined behaviour in OpenCL and may
// observe different (still deterministic) memory values under
// lock-step; their stream-derived observables (races, hot lines)
// are unchanged because the replayed streams are identical.
//
// When touching semantics here, compile.go or exec.go, change all
// three; the 3-way differential suite and FuzzEngineEquivalence hold
// the engines together.

// LaneWidth is the number of work-items executed per lock-step batch,
// mirroring a Mali shader core's warp width. It is a power of two so
// the SoA register index is a shift.
const LaneWidth = 16

const laneShift = 4 // log2(LaneWidth)

// RawMemory is an optional GlobalMemory extension: RawWindow returns a
// directly addressable byte window for n bytes at off in the given
// space, or ok=false when the request cannot be served (wrong space,
// out of bounds, read-only space with write=true, unsupported). The
// lane engine uses it to turn unit-stride batched scalar accesses into
// one bounds check plus LaneWidth raw encode/decodes; callers must
// fall back to LoadBits/StoreBits whenever ok is false so bounds
// faults keep their exact serial-engine errors.
type RawMemory interface {
	RawWindow(space int, off int64, n int, write bool) ([]byte, bool)
}

// --- compiled lane program ----------------------------------------------------

// lIns is one pre-decoded pure instruction of the lane program. kind
// is the compiled engine's specialized pKind where one exists; pFn
// carries the generic pre-resolved form in gen instead (the compiled
// engine's closures are bound to the serial register layout and cannot
// run SoA).
type lIns struct {
	kind       pKind
	a, b, c, d int32
	imm        int64
	fimm       float64
	gen        *laneGen
}

// laneGen is the generic pre-resolved form of a pure instruction the
// specialized switch has no kind for (vector widths, uncommon bases,
// CvtFI). Its executor mirrors the interpreter cases in exec.go.
type laneGen struct {
	op         ir.Op
	a, b, c, d int
	imm        int64
	fimm       float64
	w          int
	isBool     bool
	f32        bool
	srcSigned  bool
	wrap       func(int64) int64
	ifn        func(int64, int64) int64
	ffn        func(float64, float64) float64
	icmp       func(int64, int64) bool
	fcmp       func(float64, float64) bool
}

// laneEff kinds.
const (
	leLoad uint8 = iota
	leStore
	leBuiltin
	leBad
)

// laneEff is one pre-decoded effectful (memory, builtin, or invalid)
// instruction: everything the execution loop needs is resolved at
// compile time.
type laneEff struct {
	kind  uint8
	in    *ir.Instr // builtin only
	a, b  int32
	w     int
	size  int
	szw   int
	slots uint64
	lanes uint64
	bytes uint64
	line  int32
	base  types.Base
	isF   bool
	f32   bool
	op    ir.Op // leBad only
}

// lanePart is one segment of a lane block: a run of pure instructions
// (eff nil) or a single effectful instruction.
type lanePart struct {
	run []lIns
	eff *laneEff
}

// Lane block terminators.
const (
	lctlNone uint8 = iota // fall through to end
	lctlJmp
	lctlJmpIf
	lctlJmpIfZ
	lctlRet
	lctlBar
)

// laneBlock is one basic block of the lane program. delta is the
// summed pure profile contribution of the block, applied once per
// batch entry scaled by the live-lane count.
type laneBlock struct {
	parts []lanePart
	delta pureDelta
	end   int // fallthrough pc (the next block start)
	ctl   uint8
	ctlB  int32
	ctlT  int
}

// LaneCompiled is the lane engine's compiled form of one kernel,
// cached on the ir.Kernel via its LaneForm slot.
type LaneCompiled struct {
	k *ir.Kernel
	// blocks in program order; blockAt maps a block-start pc to its
	// index (-1 elsewhere — lanes can only ever dispatch on block
	// starts: entry, jump targets, fallthrough pcs).
	blocks  []laneBlock
	blockAt []int32
	// hasAtomic marks kernels the lane engine refuses: the whole group
	// falls back to the compiled engine.
	hasAtomic bool
}

// Blocks returns the number of basic blocks in the lane program.
func (c *LaneCompiled) Blocks() int { return len(c.blocks) }

// HasAtomics reports whether the kernel uses atomics and therefore
// executes on the compiled engine even under EngineLanes.
func (c *LaneCompiled) HasAtomics() bool { return c.hasAtomic }

// laneCompiledFor returns the kernel's cached lane program, building
// it on first use. Concurrent first users may build twice; the result
// is a pure function of the kernel, so whichever store wins is
// equivalent.
func laneCompiledFor(k *ir.Kernel) *LaneCompiled {
	if c, ok := k.LaneForm().(*LaneCompiled); ok {
		return c
	}
	c := CompileLanes(k)
	k.SetLaneForm(c)
	return c
}

// CompileLanes translates the kernel IR into its lane block program.
// Exported for the engine benchmarks, backend emission and the
// equivalence tests; normal execution goes through the per-kernel
// cache.
func CompileLanes(k *ir.Kernel) *LaneCompiled {
	code := k.Code
	n := len(code)
	c := &LaneCompiled{k: k}
	for i := range code {
		if code[i].Op == ir.AtomicOp {
			c.hasAtomic = true
			return c
		}
	}

	// Block boundaries: the compiled engine's, so the two engines agree
	// on what a dispatch point is.
	isStart := blockStarts(code)

	c.blockAt = make([]int32, n+1)
	for i := range c.blockAt {
		c.blockAt[i] = -1
	}
	for start := 0; start < n; {
		end := start + 1
		for end < n && !isStart[end] {
			end++
		}
		c.blockAt[start] = int32(len(c.blocks))
		c.blocks = append(c.blocks, buildLaneBlock(code, start, end))
		start = end
	}
	return c
}

// buildLaneBlock pre-decodes code[start:end] into parts plus a
// terminator. Control ops can only be the last instruction of a block
// (block splitting puts a boundary after each one).
func buildLaneBlock(code []ir.Instr, start, end int) laneBlock {
	b := laneBlock{end: end, ctl: lctlNone}
	var run []lIns
	flush := func() {
		if len(run) > 0 {
			b.parts = append(b.parts, lanePart{run: run})
			run = nil
		}
	}
	for i := start; i < end; i++ {
		in := &code[i]
		switch in.Op {
		case ir.Jmp:
			b.ctl, b.ctlT = lctlJmp, int(in.Imm)
		case ir.JmpIf:
			b.ctl, b.ctlB, b.ctlT = lctlJmpIf, in.B, int(in.Imm)
		case ir.JmpIfZ:
			b.ctl, b.ctlB, b.ctlT = lctlJmpIfZ, in.B, int(in.Imm)
		case ir.Ret:
			b.ctl = lctlRet
		case ir.BarrierOp:
			b.ctl = lctlBar
		case ir.LoadI, ir.LoadF, ir.StoreI, ir.StoreF:
			flush()
			b.parts = append(b.parts, lanePart{eff: laneEffMem(in)})
		default:
			if p, d, ok := genPure(in); ok {
				li := lIns{kind: p.kind, a: p.a, b: p.b, c: p.c, d: p.d, imm: p.imm, fimm: p.fimm}
				if p.kind == pFn {
					li.gen = laneGenFor(in)
				}
				run = append(run, li)
				b.delta.accum(&d)
				continue
			}
			flush()
			if in.Op == ir.CallB {
				b.parts = append(b.parts, lanePart{eff: laneEffBuiltin(in)})
			} else {
				b.parts = append(b.parts, lanePart{eff: &laneEff{kind: leBad, op: in.Op}})
			}
		}
	}
	flush()
	return b
}

// laneEffMem pre-decodes a load or store.
func laneEffMem(in *ir.Instr) *laneEff {
	w := int(in.Width)
	if w == 0 {
		w = 1
	}
	size := in.Base.Size()
	e := &laneEff{
		a:     in.A,
		b:     in.B,
		w:     w,
		size:  size,
		szw:   size * w,
		slots: slots128(in.Base, w),
		lanes: uint64(w),
		bytes: uint64(size * w),
		line:  int32(in.Pos.Line),
		base:  in.Base,
	}
	switch in.Op {
	case ir.LoadI:
		e.kind = leLoad
	case ir.LoadF:
		e.kind, e.isF, e.f32 = leLoad, true, in.Base == types.Float
	case ir.StoreI:
		e.kind = leStore
	case ir.StoreF:
		e.kind, e.isF, e.f32 = leStore, true, in.Base == types.Float
	}
	return e
}

// laneEffBuiltin pre-decodes a non-query builtin call; execution
// gathers the lane's registers into a scratch serial state, runs the
// interpreter's execBuiltin, and scatters the result back.
func laneEffBuiltin(in *ir.Instr) *laneEff {
	w := int(in.Width)
	if w == 0 {
		w = 1
	}
	return &laneEff{kind: leBuiltin, in: in, w: w}
}

// laneGenFor pre-resolves the generic executor of one pure
// instruction, mirroring the interpreter's operand handling.
func laneGenFor(in *ir.Instr) *laneGen {
	w := int(in.Width)
	if w == 0 {
		w = 1
	}
	g := &laneGen{
		op: in.Op,
		a:  int(in.A), b: int(in.B), c: int(in.C), d: int(in.D),
		imm: in.Imm, fimm: in.FImm, w: w,
		isBool:    in.Base == types.Bool,
		f32:       in.Base == types.Float,
		srcSigned: in.Base2.IsSigned() || in.Base2 == types.Bool,
	}
	switch in.Op {
	case ir.AddI, ir.SubI, ir.MulI, ir.DivI, ir.RemI,
		ir.AndI, ir.OrI, ir.XorI, ir.ShlI, ir.ShrI:
		g.ifn = intBinFn(in.Op, in.Base)
	case ir.NegI, ir.NotI, ir.CvtII, ir.CvtFI:
		g.wrap = wrapFn(in.Base)
	case ir.AddF, ir.SubF, ir.MulF, ir.DivF:
		g.ffn = fltBinFn(in.Op, in.Base)
	case ir.CmpEqI, ir.CmpNeI, ir.CmpLtI, ir.CmpLeI:
		g.icmp = intCmpFn(in.Op, in.Base)
	case ir.CmpEqF, ir.CmpNeF, ir.CmpLtF, ir.CmpLeF:
		g.fcmp = fltCmpFn(in.Op)
	}
	return g
}

// addN applies the delta scaled by n lanes — the lane engine's bulk
// form of executing the same pure instruction once per work-item.
func (d *pureDelta) addN(p *Profile, n uint64) {
	p.IntInstrs += d.intInstrs * n
	p.IntLanes += d.intLanes * n
	p.F32Instrs += d.f32Instrs * n
	p.F32Lanes += d.f32Lanes * n
	p.F64Instrs += d.f64Instrs * n
	p.F64Lanes += d.f64Lanes * n
	p.ArithSlots128 += d.slots * n
}

// --- runtime state ------------------------------------------------------------

// Lane statuses at the end of (or during) a segment.
const (
	laneLive  uint8 = iota // runnable
	laneDone               // executed Ret
	laneAtBar              // parked at a barrier sync point
	laneFault              // errs[l] after consuming steps[l] steps
	lanePCErr              // errs[l]: invalid pc after steps[l] steps (consumes none)
	laneTrip               // force-tripped at the segment step budget
)

// laneRec is one buffered observer event, replayed in serial item
// order after the segment.
type laneRec struct {
	step  uint64
	addr  int64
	space int32
	size  int32
	line  int32
	write bool
}

// laneBatch is the resident state of up to LaneWidth work-items
// executing in lock-step. Registers are SoA views into the group
// arena; steps, status and recs are per-lane bookkeeping for the
// serial-order replay.
type laneBatch struct {
	base   int // first flat item index
	n      int // live lanes (≤ LaneWidth; tail batch may be short)
	phase  int
	ii     []int64
	ff     []float64
	priv   []byte
	coords [LaneWidth][3]int
	pc     [LaneWidth]int
	status [LaneWidth]uint8
	steps  [LaneWidth]uint64
	errs   [LaneWidth]error
	recs   [LaneWidth][]laneRec
	mask   [LaneWidth]int
}

// laneExec drives one group's lane execution.
type laneExec struct {
	r       *groupRunner
	c       *LaneCompiled
	rec     bool // buffer observer records
	raw     RawMemory
	pb      int // private bytes per lane
	scratch wiState
}

// boundArg is one pre-resolved kernel argument binding, broadcast to
// every lane at batch init (mirrors bindArgs).
type boundArg struct {
	slot int32
	isF  bool
	bits int64
	f    float64
}

// laneArena pools the per-group allocations of the lane engine.
type laneArena struct {
	ii       []int64
	ff       []float64
	priv     []byte
	local    []byte
	coords   [][3]int
	batches  []laneBatch
	args     []boundArg
	scratchI []int64
	scratchF []float64
}

var laneArenas = sync.Pool{New: func() any { return new(laneArena) }}

// runGroupLanes is the lane engine's work-group loop. The phase
// protocol mirrors the serial engines exactly; within a phase each
// batch executes lock-step and then replays its buffered effects in
// serial item order.
func (r *groupRunner) runGroupLanes(localBytes, nloc int) error {
	lc := laneCompiledFor(r.k)
	if lc.hasAtomic {
		return r.runGroupCompiled(localBytes, nloc)
	}
	k := r.k
	cfg := r.cfg
	ar := laneArenas.Get().(*laneArena)
	defer laneArenas.Put(ar)
	ar.local = grown(ar.local, localBytes)
	clear(ar.local)
	r.local = ar.local

	x := &laneExec{r: r, c: lc, rec: cfg.Observer != nil, pb: k.PrivateBytes}
	x.raw, _ = cfg.Mem.(RawMemory)
	ar.scratchI = grown(ar.scratchI, k.NumI)
	ar.scratchF = grown(ar.scratchF, k.NumF)
	x.scratch = wiState{ii: ar.scratchI, ff: ar.scratchF}

	// Pre-resolve argument bindings (mirrors bindArgs).
	ar.args = ar.args[:0]
	localOff := int64(k.LocalBytes)
	for i, p := range k.Params {
		arg := cfg.Args[i]
		switch p.Class {
		case ir.ParamScalarI, ir.ParamGlobalPtr:
			ar.args = append(ar.args, boundArg{slot: int32(p.Slot), bits: arg.Bits})
		case ir.ParamScalarF:
			ar.args = append(ar.args, boundArg{slot: int32(p.Slot), isF: true, f: arg.F})
		case ir.ParamLocalPtr:
			localOff = int64(alignUp(int(localOff), 16))
			ar.args = append(ar.args, boundArg{slot: int32(p.Slot), bits: ir.EncodeAddr(ir.SpaceLocal, localOff)})
			localOff += int64(arg.LocalSize)
		}
	}

	// Work-item coordinates in flat row-major order.
	ar.coords = grown(ar.coords, nloc)
	i := 0
	for lz := 0; lz < max(cfg.LocalSize[2], 1); lz++ {
		for ly := 0; ly < max(cfg.LocalSize[1], 1); ly++ {
			for lx := 0; lx < cfg.LocalSize[0]; lx++ {
				ar.coords[i] = [3]int{lx, ly, lz}
				i++
			}
		}
	}

	nb := (nloc + LaneWidth - 1) / LaneWidth

	if !k.UsesBarrier {
		// Fast path: one batch's registers, reset and reused.
		ar.ii = grown(ar.ii, k.NumI*LaneWidth)
		ar.ff = grown(ar.ff, k.NumF*LaneWidth)
		ar.priv = grown(ar.priv, k.PrivateBytes*LaneWidth)
		ar.batches = grown(ar.batches, 1)
		b := &ar.batches[0]
		b.ii, b.ff, b.priv = ar.ii, ar.ff, ar.priv
		for bi := 0; bi < nb; bi++ {
			x.initBatch(b, bi, nloc, ar.coords, ar.args, true)
			x.runSegment(b)
			if err := x.replay(b); err != nil {
				return err
			}
		}
		return nil
	}

	// Barrier path: every batch resident, advanced in barrier phases.
	ar.ii = grown(ar.ii, k.NumI*LaneWidth*nb)
	clear(ar.ii)
	ar.ff = grown(ar.ff, k.NumF*LaneWidth*nb)
	clear(ar.ff)
	ar.priv = grown(ar.priv, k.PrivateBytes*LaneWidth*nb)
	clear(ar.priv)
	ar.batches = grown(ar.batches, nb)
	ni, nf, np := k.NumI*LaneWidth, k.NumF*LaneWidth, k.PrivateBytes*LaneWidth
	for bi := 0; bi < nb; bi++ {
		b := &ar.batches[bi]
		b.ii = ar.ii[bi*ni : (bi+1)*ni]
		b.ff = ar.ff[bi*nf : (bi+1)*nf]
		b.priv = ar.priv[bi*np : (bi+1)*np]
		x.initBatch(b, bi, nloc, ar.coords, ar.args, false)
	}
	for phase := 0; ; phase++ {
		anyBar, anyDone, allFinished := false, false, true
		for bi := 0; bi < nb; bi++ {
			b := &ar.batches[bi]
			b.phase = phase
			runnable := false
			for l := 0; l < b.n; l++ {
				b.steps[l] = 0
				b.recs[l] = b.recs[l][:0]
				if b.status[l] == laneAtBar {
					b.status[l] = laneLive
				}
				if b.status[l] == laneLive {
					runnable = true
				}
			}
			if runnable {
				x.runSegment(b)
				if err := x.replay(b); err != nil {
					return err
				}
			}
			for l := 0; l < b.n; l++ {
				if b.status[l] == laneDone {
					anyDone = true
				} else {
					anyBar = true
					allFinished = false
				}
			}
		}
		if allFinished {
			return nil
		}
		if anyBar && anyDone {
			return ErrBarrierDivergence
		}
	}
}

// initBatch resets a batch for its work-items: zeroed registers and
// private memory, entry pcs, and argument bindings broadcast to each
// lane. reset clears the register views (the barrier path pre-clears
// its whole arena instead).
func (x *laneExec) initBatch(b *laneBatch, bi, nloc int, coords [][3]int, args []boundArg, reset bool) {
	base := bi * LaneWidth
	n := nloc - base
	if n > LaneWidth {
		n = LaneWidth
	}
	b.base, b.n, b.phase = base, n, 0
	if reset {
		clear(b.ii)
		clear(b.ff)
		clear(b.priv)
	}
	for l := 0; l < n; l++ {
		b.coords[l] = coords[base+l]
		b.pc[l] = 0
		b.status[l] = laneLive
		b.steps[l] = 0
		b.errs[l] = nil
		b.recs[l] = b.recs[l][:0]
		for _, a := range args {
			if a.isF {
				b.ff[(int(a.slot)<<laneShift)+l] = a.f
			} else {
				b.ii[(int(a.slot)<<laneShift)+l] = a.bits
			}
		}
	}
}

// --- lock-step scheduler ------------------------------------------------------

// runSegment advances the batch until no lane is runnable (all lanes
// done, parked at a barrier, faulted, or tripped). Divergent lanes are
// scheduled min-pc-first: jump targets are always block starts and
// structured control flow joins at forward pcs, so lanes re-merge into
// one mask at the post-dominator block.
func (x *laneExec) runSegment(b *laneBatch) {
	// Per-segment step budget: a lane consuming more than this is
	// force-tripped; replay recomputes the exact serial truncation, so
	// the budget only has to bound execution, not match it.
	budget := uint64(math.MaxUint64)
	if x.r.limit >= x.r.steps {
		budget = x.r.limit - x.r.steps
	} else {
		budget = 0
	}
	for {
		minpc := -1
		for l := 0; l < b.n; l++ {
			if b.status[l] == laneLive && (minpc == -1 || b.pc[l] < minpc) {
				minpc = b.pc[l]
			}
		}
		if minpc == -1 {
			return
		}
		x.runBlock(b, minpc, budget)
	}
}

// runBlock executes one basic block for every live lane parked at pc.
func (x *laneExec) runBlock(b *laneBatch, pc int, budget uint64) {
	mask := b.mask[:0]
	for l := 0; l < b.n; l++ {
		if b.status[l] == laneLive && b.pc[l] == pc {
			mask = append(mask, l)
		}
	}
	k := x.c.k
	if pc < 0 || pc >= len(k.Code) {
		// Same fault and message as the serial dispatch loops; the pc
		// check precedes the step increment there, so this consumes no
		// step.
		err := fmt.Errorf("vm: pc %d out of range in kernel %s", pc, k.Name)
		for _, l := range mask {
			b.status[l] = lanePCErr
			b.errs[l] = err
		}
		return
	}
	bi := x.c.blockAt[pc]
	if bi < 0 {
		// Unreachable by construction (lanes only dispatch on block
		// starts); fault rather than crash if it ever regresses.
		err := fmt.Errorf("vm: internal: lane pc %d is not a block start in kernel %s", pc, k.Name)
		for _, l := range mask {
			b.status[l] = laneFault
			b.errs[l] = err
		}
		return
	}
	blk := &x.c.blocks[bi]
	prof := x.r.prof
	blk.delta.addN(prof, uint64(len(mask)))
	for pi := range blk.parts {
		p := &blk.parts[pi]
		if p.eff == nil {
			// Pure run: execute lock-step, then bulk-account. No budget
			// check — a pure op has no observable effect, every loop
			// closes through a checked control op, and replay
			// reconstructs the exact serial ErrStepLimit point from the
			// per-lane step counts.
			x.runPureRun(b, p.run, mask)
			ki := uint64(len(p.run))
			for _, l := range mask {
				b.steps[l] += ki
			}
			prof.Instrs += ki * uint64(len(mask))
			continue
		}
		mask = x.countLanes(b, mask, budget)
		if len(mask) == 0 {
			return
		}
		mask = x.runEff(b, p.eff, mask)
		if len(mask) == 0 {
			return
		}
	}
	switch blk.ctl {
	case lctlNone:
		for _, l := range mask {
			b.pc[l] = blk.end
		}
	case lctlJmp:
		mask = x.countLanes(b, mask, budget)
		for _, l := range mask {
			b.pc[l] = blk.ctlT
		}
	case lctlJmpIf:
		mask = x.countLanes(b, mask, budget)
		cb := int(blk.ctlB) << laneShift
		for _, l := range mask {
			if b.ii[cb+l] != 0 {
				b.pc[l] = blk.ctlT
			} else {
				b.pc[l] = blk.end
			}
		}
	case lctlJmpIfZ:
		mask = x.countLanes(b, mask, budget)
		cb := int(blk.ctlB) << laneShift
		for _, l := range mask {
			if b.ii[cb+l] == 0 {
				b.pc[l] = blk.ctlT
			} else {
				b.pc[l] = blk.end
			}
		}
	case lctlRet:
		mask = x.countLanes(b, mask, budget)
		for _, l := range mask {
			b.status[l] = laneDone
		}
	case lctlBar:
		mask = x.countLanes(b, mask, budget)
		prof.Barriers += uint64(len(mask))
		for _, l := range mask {
			b.pc[l] = blk.end
			if x.c.k.UsesBarrier {
				b.status[l] = laneAtBar
			}
			// Barrier-free path: like the serial engines, barrier is a
			// no-op there (the flag gates which group loop runs).
		}
	}
}

// countLanes performs the per-lane dispatch bookkeeping for one
// checked instruction: step increment, budget check (force-trip), and
// the instruction count for surviving lanes. Mirrors countEff.
func (x *laneExec) countLanes(b *laneBatch, mask []int, budget uint64) []int {
	out := mask[:0]
	for _, l := range mask {
		b.steps[l]++
		if b.steps[l] > budget {
			b.status[l] = laneTrip
			continue
		}
		out = append(out, l)
	}
	x.r.prof.Instrs += uint64(len(out))
	return out
}

// --- effectful execution ------------------------------------------------------

// runEff executes one effectful instruction across the mask, buffering
// observer records per lane. Lanes that fault are removed from the
// mask with their error and exact step count recorded; the replay pass
// decides which fault (if any) the serial engines would have surfaced.
func (x *laneExec) runEff(b *laneBatch, e *laneEff, mask []int) []int {
	switch e.kind {
	case leBad:
		err := fmt.Errorf("vm: unknown opcode %v", e.op)
		for _, l := range mask {
			b.status[l] = laneFault
			b.errs[l] = err
		}
		return mask[:0]
	case leBuiltin:
		return x.runBuiltin(b, e, mask)
	case leStore:
		return x.runMem(b, e, mask, true)
	default:
		return x.runMem(b, e, mask, false)
	}
}

// runMem executes one load or store for every lane in the mask. The
// per-lane bodies mirror the interpreter's execLoad/execStore exactly:
// profile counts and the observer record come before the access that
// may fault. Batched unit-stride scalar global accesses take a raw
// window fast path when the backing memory offers one.
func (x *laneExec) runMem(b *laneBatch, e *laneEff, mask []int, store bool) []int {
	aI := int(e.a) << laneShift
	bI := int(e.b) << laneShift
	prof := x.r.prof

	if e.w == 1 {
		if out, ok := x.runMemRaw(b, e, mask, store, aI, bI); ok {
			return out
		}
		out := mask[:0]
		for _, l := range mask {
			addr := b.ii[bI+l]
			space, off := ir.DecodeAddr(addr)
			if store {
				prof.StoreInstrs++
			} else {
				prof.LoadInstrs++
			}
			prof.LSSlots128 += e.slots
			prof.LSLanes++
			if space == ir.SpacePrivate {
				prof.PrivateAccesses++
			}
			if store {
				prof.BytesWritten[space&3] += e.bytes
			} else {
				prof.BytesRead[space&3] += e.bytes
			}
			if x.rec {
				b.recs[l] = append(b.recs[l], laneRec{
					step: b.steps[l], addr: addr, space: int32(space),
					size: int32(e.szw), line: e.line, write: store,
				})
			}
			var err error
			if store {
				var bits uint64
				switch {
				case !e.isF:
					bits = intToBits(e.base, b.ii[aI+l])
				case e.f32:
					bits = uint64(math.Float32bits(float32(b.ff[aI+l])))
				default:
					bits = math.Float64bits(b.ff[aI+l])
				}
				switch space {
				case ir.SpaceLocal:
					err = sliceStore(x.r.local, off, e.size, bits)
				case ir.SpacePrivate:
					err = sliceStore(b.priv[l*x.pb:(l+1)*x.pb], off, e.size, bits)
				default:
					err = x.r.cfg.Mem.StoreBits(space, off, e.size, bits)
				}
			} else {
				var bits uint64
				switch space {
				case ir.SpaceLocal:
					bits, err = sliceLoad(x.r.local, off, e.size)
				case ir.SpacePrivate:
					bits, err = sliceLoad(b.priv[l*x.pb:(l+1)*x.pb], off, e.size)
				default:
					bits, err = x.r.cfg.Mem.LoadBits(space, off, e.size)
				}
				if err == nil {
					switch {
					case !e.isF:
						b.ii[aI+l] = bitsToInt(e.base, bits)
					case e.f32:
						b.ff[aI+l] = float64(math.Float32frombits(uint32(bits)))
					default:
						b.ff[aI+l] = math.Float64frombits(bits)
					}
				}
			}
			if err != nil {
				b.status[l] = laneFault
				b.errs[l] = err
				continue
			}
			out = append(out, l)
		}
		return out
	}

	// Vector access: one instruction-level record and count per lane,
	// then the per-element loop, exactly like execLoad/execStore.
	out := mask[:0]
	for _, l := range mask {
		addr := b.ii[bI+l]
		space, _ := ir.DecodeAddr(addr)
		if store {
			prof.StoreInstrs++
		} else {
			prof.LoadInstrs++
		}
		prof.LSSlots128 += e.slots
		prof.LSLanes += e.lanes
		if space == ir.SpacePrivate {
			prof.PrivateAccesses++
		}
		if store {
			prof.BytesWritten[space&3] += e.bytes
		} else {
			prof.BytesRead[space&3] += e.bytes
		}
		if x.rec {
			b.recs[l] = append(b.recs[l], laneRec{
				step: b.steps[l], addr: addr, space: int32(space),
				size: int32(e.szw), line: e.line, write: store,
			})
		}
		var err error
		for v := 0; v < e.w && err == nil; v++ {
			ea := addr + int64(v*e.size)
			if store {
				var bits uint64
				switch {
				case !e.isF:
					bits = intToBits(e.base, b.ii[aI+(v<<laneShift)+l])
				case e.f32:
					bits = uint64(math.Float32bits(float32(b.ff[aI+(v<<laneShift)+l])))
				default:
					bits = math.Float64bits(b.ff[aI+(v<<laneShift)+l])
				}
				err = x.storeBitsLane(b, l, ea, e.size, bits)
			} else {
				var bits uint64
				bits, err = x.loadBitsLane(b, l, ea, e.size)
				if err == nil {
					switch {
					case !e.isF:
						b.ii[aI+(v<<laneShift)+l] = bitsToInt(e.base, bits)
					case e.f32:
						b.ff[aI+(v<<laneShift)+l] = float64(math.Float32frombits(uint32(bits)))
					default:
						b.ff[aI+(v<<laneShift)+l] = math.Float64frombits(bits)
					}
				}
			}
		}
		if err != nil {
			b.status[l] = laneFault
			b.errs[l] = err
			continue
		}
		out = append(out, l)
	}
	return out
}

// runMemRaw is the batched unit-stride fast path: when every lane's
// scalar address advances by exactly the element size and the backing
// memory exposes a raw window over the whole span, the per-lane
// interface calls and bounds checks collapse into one window fetch.
// Profile counts and observer records stay per-lane identical. Returns
// ok=false (caller falls back) whenever the pattern or window is
// unavailable — including any access that could fault, so error paths
// keep their exact serial messages.
func (x *laneExec) runMemRaw(b *laneBatch, e *laneEff, mask []int, store bool, aI, bI int) ([]int, bool) {
	if x.raw == nil || len(mask) < 2 || (e.size != 4 && e.size != 8) {
		return nil, false
	}
	addr0 := b.ii[bI+mask[0]]
	space, off0 := ir.DecodeAddr(addr0)
	if space != ir.SpaceGlobal && !(space == ir.SpaceConstant && !store) {
		return nil, false
	}
	for i := 1; i < len(mask); i++ {
		if b.ii[bI+mask[i]] != addr0+int64(i*e.size) {
			return nil, false
		}
	}
	win, ok := x.raw.RawWindow(space, off0, e.size*len(mask), store)
	if !ok {
		return nil, false
	}
	prof := x.r.prof
	n := uint64(len(mask))
	if store {
		prof.StoreInstrs += n
		prof.BytesWritten[space&3] += e.bytes * n
	} else {
		prof.LoadInstrs += n
		prof.BytesRead[space&3] += e.bytes * n
	}
	prof.LSSlots128 += e.slots * n
	prof.LSLanes += n
	if x.rec {
		for i, l := range mask {
			b.recs[l] = append(b.recs[l], laneRec{
				step: b.steps[l], addr: addr0 + int64(i*e.size), space: int32(space),
				size: int32(e.szw), line: e.line, write: store,
			})
		}
	}
	if e.size == 4 {
		for i, l := range mask {
			w := win[i*4 : i*4+4]
			if store {
				var bits uint32
				switch {
				case !e.isF:
					bits = uint32(intToBits(e.base, b.ii[aI+l]))
				default:
					bits = math.Float32bits(float32(b.ff[aI+l]))
				}
				w[0], w[1], w[2], w[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
			} else {
				bits := uint32(w[0]) | uint32(w[1])<<8 | uint32(w[2])<<16 | uint32(w[3])<<24
				switch {
				case !e.isF:
					b.ii[aI+l] = bitsToInt(e.base, uint64(bits))
				default:
					b.ff[aI+l] = float64(math.Float32frombits(bits))
				}
			}
		}
	} else {
		for i, l := range mask {
			w := win[i*8 : i*8+8]
			if store {
				var bits uint64
				switch {
				case !e.isF:
					bits = intToBits(e.base, b.ii[aI+l])
				default:
					bits = math.Float64bits(b.ff[aI+l])
				}
				for k := 0; k < 8; k++ {
					w[k] = byte(bits >> (8 * uint(k)))
				}
			} else {
				var bits uint64
				for k := 7; k >= 0; k-- {
					bits = bits<<8 | uint64(w[k])
				}
				if !e.isF {
					b.ii[aI+l] = bitsToInt(e.base, bits)
				} else {
					b.ff[aI+l] = math.Float64frombits(bits)
				}
			}
		}
	}
	return mask, true
}

// loadBitsLane mirrors groupRunner.loadBits with the lane's private
// slice substituted.
func (x *laneExec) loadBitsLane(b *laneBatch, l int, addr int64, size int) (uint64, error) {
	space, off := ir.DecodeAddr(addr)
	switch space {
	case ir.SpaceLocal:
		return sliceLoad(x.r.local, off, size)
	case ir.SpacePrivate:
		return sliceLoad(b.priv[l*x.pb:(l+1)*x.pb], off, size)
	default:
		return x.r.cfg.Mem.LoadBits(space, off, size)
	}
}

// storeBitsLane mirrors groupRunner.storeBits with the lane's private
// slice substituted.
func (x *laneExec) storeBitsLane(b *laneBatch, l int, addr int64, size int, bits uint64) error {
	space, off := ir.DecodeAddr(addr)
	switch space {
	case ir.SpaceLocal:
		return sliceStore(x.r.local, off, size, bits)
	case ir.SpacePrivate:
		return sliceStore(b.priv[l*x.pb:(l+1)*x.pb], off, size, bits)
	default:
		return x.r.cfg.Mem.StoreBits(space, off, size, bits)
	}
}

// runBuiltin executes a non-query builtin per lane by gathering the
// lane's registers into a scratch serial state, running the
// interpreter's execBuiltin (which only reads/writes the A/B/C/D
// register windows and counts its own profile), and scattering the A
// window back.
func (x *laneExec) runBuiltin(b *laneBatch, e *laneEff, mask []int) []int {
	out := mask[:0]
	in := e.in
	for _, l := range mask {
		x.gather(b, in, e.w, l)
		x.r.localID = b.coords[l]
		if err := x.r.execBuiltin(in, &x.scratch, e.w); err != nil {
			b.status[l] = laneFault
			b.errs[l] = err
			continue
		}
		x.scatter(b, in, e.w, l)
		out = append(out, l)
	}
	return out
}

// gather copies the w-wide A/B/C/D register windows of lane l into the
// scratch state, in both banks (the builtin's base decides which bank
// it reads; copying both keeps scatter an identity on untouched
// slots).
func (x *laneExec) gather(b *laneBatch, in *ir.Instr, w, l int) {
	sc := &x.scratch
	for _, s := range [4]int32{in.A, in.B, in.C, in.D} {
		lo := int(s)
		if lo < 0 {
			continue
		}
		hi := lo + w
		if m := len(sc.ii); hi > m {
			hi = m
		}
		for k := lo; k < hi; k++ {
			sc.ii[k] = b.ii[(k<<laneShift)+l]
		}
		hi = lo + w
		if m := len(sc.ff); hi > m {
			hi = m
		}
		for k := lo; k < hi; k++ {
			sc.ff[k] = b.ff[(k<<laneShift)+l]
		}
	}
}

// scatter copies the w-wide A window back from the scratch state into
// lane l, in both banks.
func (x *laneExec) scatter(b *laneBatch, in *ir.Instr, w, l int) {
	sc := &x.scratch
	lo := int(in.A)
	if lo < 0 {
		return
	}
	hi := lo + w
	if m := len(sc.ii); hi > m {
		hi = m
	}
	for k := lo; k < hi; k++ {
		b.ii[(k<<laneShift)+l] = sc.ii[k]
	}
	hi = lo + w
	if m := len(sc.ff); hi > m {
		hi = m
	}
	for k := lo; k < hi; k++ {
		b.ff[(k<<laneShift)+l] = sc.ff[k]
	}
}

// --- serial-order replay ------------------------------------------------------

// replay re-walks the batch's lanes in serial item order after a
// segment, emitting the buffered observer records and committing the
// group-cumulative step count exactly as the serial engines would
// have: each lane's steps draw down the remaining budget in item
// order, and the first lane whose outcome the serial engines would
// have surfaced (a fault, an invalid pc, or running out of budget)
// ends the group with that error, its observer stream truncated at the
// serial stopping point.
func (x *laneExec) replay(b *laneBatch) error {
	r := x.r
	cum := r.steps
	for l := 0; l < b.n; l++ {
		var avail uint64
		if r.limit > cum {
			avail = r.limit - cum
		}
		s := b.steps[l]
		switch b.status[l] {
		case laneDone, laneAtBar:
			if s > avail {
				// The serial engines would have tripped this item at
				// budget exhaustion, after avail steps.
				x.flush(b, l, avail)
				return ErrStepLimit
			}
			cum += s
			x.flush(b, l, math.MaxUint64)
		case laneTrip:
			// The lane outran the whole segment budget, so the serial
			// engines trip here no matter what (avail ≤ the segment
			// budget in item order).
			x.flush(b, l, avail)
			return ErrStepLimit
		case laneFault:
			// The fault consumed its step; it surfaces only if the
			// budget reaches it.
			if s > avail {
				x.flush(b, l, avail)
				return ErrStepLimit
			}
			x.flush(b, l, math.MaxUint64)
			return b.errs[l]
		case lanePCErr:
			// The pc check precedes the step increment in the serial
			// dispatch loops, so an invalid pc after s steps surfaces
			// even when the budget is exactly s.
			if s > avail {
				x.flush(b, l, avail)
				return ErrStepLimit
			}
			x.flush(b, l, math.MaxUint64)
			return b.errs[l]
		}
	}
	r.steps = cum
	return nil
}

// flush emits lane l's buffered observer records with step ≤ upto, in
// execution order, reconstructing the serial per-item callback stream.
func (x *laneExec) flush(b *laneBatch, l int, upto uint64) {
	if !x.rec {
		return
	}
	r := x.r
	obs := r.cfg.Observer
	item := b.base + l
	recs := b.recs[l]
	for i := range recs {
		rec := &recs[i]
		if rec.step > upto {
			break
		}
		if r.ctxObs != nil {
			r.ctxObs.OnContext(item, b.phase, int(rec.line))
		}
		obs.OnAccess(int(rec.space), rec.addr, int(rec.size), rec.write)
	}
}
