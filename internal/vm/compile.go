package vm

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"maligo/internal/clc/builtin"
	"maligo/internal/clc/ir"
	"maligo/internal/clc/types"
)

// This file implements the closure-compiled fast path: the kernel IR
// is translated once into a flat program of pre-decoded execution
// units and the result is cached on the kernel object. Basic blocks
// become superinstructions — one closure runs the whole block under a
// single dispatch. Inside a block, runs of pure register-to-register
// instructions execute back to back out of a pre-decoded instruction
// array (a tight switch, no per-instruction dispatch or call), with
// their profile contribution folded into one precomputed delta;
// effectful instructions (memory, builtins, atomics, control flow)
// keep exact per-instruction bookkeeping. The compiled engine must be
// observationally identical to the interpreter in exec.go — same
// memory effects, same Profile counts, same observer callback order,
// same errors at the same points — so every execution body mirrors
// the corresponding interpreter case exactly, and the differential
// tests plus FuzzEngineEquivalence hold the two engines together.
// When touching either engine, change both.

// cop is one compiled dispatch unit: a single instruction or a whole
// basic block. It runs against the shared group runner and the current
// work-item state. The dispatch loop accounts the first instruction
// (pc advance, step limit, instruction count) exactly like the
// interpreter loop does; block closures take over that bookkeeping for
// the instructions after the first.
type cop func(r *groupRunner, st *wiState) error

// pureOp is the fallback body of a pure instruction the pre-decoded
// switch has no specialized kind for (vector widths, uncommon bases).
type pureOp func(r *groupRunner, st *wiState)

// pureDelta is the static profile contribution of one pure
// instruction (or the sum over a run of them), applied in one shot
// where the interpreter would count op by op. Only the counters a pure
// op can move are represented.
type pureDelta struct {
	intInstrs, intLanes uint64
	f32Instrs, f32Lanes uint64
	f64Instrs, f64Lanes uint64
	slots               uint64
}

// accum folds another delta into d.
func (d *pureDelta) accum(o *pureDelta) {
	d.intInstrs += o.intInstrs
	d.intLanes += o.intLanes
	d.f32Instrs += o.f32Instrs
	d.f32Lanes += o.f32Lanes
	d.f64Instrs += o.f64Instrs
	d.f64Lanes += o.f64Lanes
	d.slots += o.slots
}

// pKind enumerates the pre-decoded pure instruction forms runPure
// executes directly. pFn runs the fallback closure.
type pKind uint8

const (
	pFn pKind = iota

	pMovI // also CvtII with identity wrapping
	pMovF // also CvtFF double→double
	pImmI
	pImmF

	pAddI64
	pSubI64
	pMulI64
	pAddI32
	pSubI32
	pMulI32
	pAddU32
	pSubU32
	pMulU32
	pAndI64
	pOrI64
	pXorI64
	pShlI64
	pShlI32
	pShrS64
	pShrS32

	pAddF32
	pSubF32
	pMulF32
	pDivF32
	pAddF64
	pSubF64
	pMulF64
	pDivF64
	pNegF32
	pNegF64

	// Fused multiply-add pairs (fuseRun): the product lands in a, the
	// sum of the product and register imm lands in d. The F kinds keep
	// the add's operand order (L: product left, R: product right).
	pMaddI64
	pMaddI32
	pMaddF32L
	pMaddF32R
	pMaddF64L
	pMaddF64R

	pCmpEqI
	pCmpNeI
	pCmpLtS
	pCmpLtU
	pCmpLeS
	pCmpLeU
	pCmpEqF
	pCmpNeF
	pCmpLtF
	pCmpLeF

	pSelI
	pSelF

	pCvtII32  // sign-extending int conversion
	pCvtIIU32 // zero-extending uint conversion
	pCvtSF64  // signed int → double
	pCvtSF32  // signed int → float (double rounding, like the interpreter)
	pCvtUF64
	pCvtUF32
	pCvtFF32 // double → float round

	pGlobalID
	pLocalID
	pGroupID
	pGlobalSize
	pLocalSize
	pNumGroups
	pGlobalOffset
	pWorkDim

	// Scalar memory accesses, inlined into the block program so a
	// straight-line body runs under one switch loop. These are
	// effectful: each syncs the deferred step/pc bookkeeping (pre) and
	// can fault. a = value register, b = address register, size is the
	// element size, d the source line for observers.
	pLoadF32
	pLoadF64
	pLoadInt
	pStoreF32
	pStoreF64
	pStoreInt
)

// pIns is one pre-decoded block-program instruction: the specialized
// kind plus its resolved register slots and immediates. Unspecialized
// pure forms carry their body in fn; inline memory kinds carry the
// element base/size and their bookkeeping sync count (pre).
type pIns struct {
	kind       pKind
	base       uint8
	size       uint16
	pre        uint16
	a, b, c, d int32
	imm        int64
	fimm       float64
	fn         pureOp
}

// fnIns wraps a fallback closure as a pre-decoded instruction.
func fnIns(f pureOp) pIns { return pIns{kind: pFn, fn: f} }

// errYield is the internal signal a Ret or BarrierOp closure returns
// to hand control back to the dispatch loop; st.done distinguishes the
// two. It never escapes the VM.
var errYield = errors.New("vm: yield")

// Compiled is the closure-compiled form of one kernel, cached on the
// ir.Kernel via its CompiledForm slot.
type Compiled struct {
	k      *ir.Kernel
	ops    []cop
	blocks int
	fused  int
	// deltas holds the static profile contribution of each compiled
	// block's pure instructions, indexed by the block's execution
	// counter; runGroupCompiled folds the counters into the Profile
	// once per group.
	deltas []pureDelta
	// initI and initF are a work-item's register files after reset:
	// zeroed registers followed by the tier-2 constant slots.
	initI []int64
	initF []float64
}

// NumOps returns the compiled program length (one slot per IR
// instruction, so pcs index it directly; only block starts are ever
// dispatched).
func (c *Compiled) NumOps() int { return len(c.ops) }

// Blocks returns the number of basic blocks the program was split
// into (each one closure, each one dispatch per execution).
func (c *Compiled) Blocks() int { return c.blocks }

// Fused returns the number of instructions folded into a preceding
// block closure — the dispatches saved per straight-line pass over the
// program relative to instruction-at-a-time execution.
func (c *Compiled) Fused() int { return c.fused }

// compiledFor returns the kernel's cached compiled program, compiling
// on first use. Concurrent first users may compile twice; the result
// is a pure function of the kernel, so whichever store wins is
// equivalent.
func compiledFor(k *ir.Kernel) *Compiled {
	if c, ok := k.CompiledForm().(*Compiled); ok {
		return c
	}
	c := CompileKernel(k)
	k.SetCompiledForm(c)
	return c
}

// CompileKernel translates the kernel IR into its closure program:
// per-instruction units first, then one superinstruction closure per
// basic block that has more than one instruction or starts with a pure
// one. Exported for the engine benchmarks
// and equivalence tests; normal execution goes through the per-kernel
// cache.
func CompileKernel(k *ir.Kernel) *Compiled {
	code := k.Code
	n := len(code)
	ops := make([]cop, n)
	pures := make([]pIns, n)
	deltas := make([]pureDelta, n)
	isPure := make([]bool, n)
	isInline := make([]bool, n)
	for i := range code {
		if p, d, ok := genPure(&code[i]); ok {
			pures[i], deltas[i], isPure[i] = p, d, true
			continue
		}
		ops[i] = genOp(&code[i])
		if p, ok := genInline(&code[i]); ok {
			pures[i], isInline[i] = p, true
		}
	}

	// Dispatch can only ever land on a block start (see blockStarts), so
	// executing whole blocks under one dispatch preserves the
	// instruction-at-a-time observables. Pure instructions inside a
	// block get no closure of their own; effectful ones keep theirs as
	// block parts.
	isStart := blockStarts(code)

	bc := &blockCompiler{
		code: code, pures: pures, deltas: deltas, isPure: isPure, isInline: isInline,
		ops: ops, t2: newTier2(k, isStart),
	}
	blocks, fused := 0, 0
	for start := 0; start < n; {
		end := start + 1
		for end < n && !isStart[end] {
			end++
		}
		blocks++
		if end-start > 1 || isPure[start] {
			fused += end - start - 1
			ops[start] = bc.compileBlock(start, end)
		}
		start = end
	}
	c := &Compiled{k: k, ops: ops, blocks: blocks, fused: fused, deltas: bc.counted,
		initI: make([]int64, k.NumI+len(bc.t2.constI)),
		initF: make([]float64, k.NumF+len(bc.t2.constF)),
	}
	copy(c.initI[k.NumI:], bc.t2.constI)
	copy(c.initF[k.NumF:], bc.t2.constF)
	return c
}

// blockStarts marks the block boundaries of a kernel: the function
// entry, every jump target, and the instruction after every
// control-flow op (entry pc 0, a taken jump, fallthrough past a block
// and resume after a barrier are the only places dispatch lands). The
// slot past the end is marked too.
func blockStarts(code []ir.Instr) []bool {
	n := len(code)
	isStart := make([]bool, n+1)
	isStart[n] = true
	if n > 0 {
		isStart[0] = true
	}
	for i := range code {
		switch code[i].Op {
		case ir.Jmp, ir.JmpIf, ir.JmpIfZ:
			if t := code[i].Imm; t >= 0 && t <= int64(n) {
				isStart[t] = true
			}
			isStart[i+1] = true
		case ir.Ret, ir.BarrierOp:
			isStart[i+1] = true
		}
	}
	return isStart
}

// Block bookkeeping. The dispatch loop has already accounted the
// block's first instruction (pc advance, steps, limit check, Instrs)
// before the closure runs, exactly as the interpreter does per
// instruction. Inside the block:
//
//   - each effectful instruction after the first replicates the
//     dispatch bookkeeping exactly (countEff) — pc advance, step
//     increment, limit check before the instruction runs, then the
//     instruction count — so faults, observer callbacks and
//     ErrStepLimit gate at the same points as in the interpreter;
//   - a run of pure instructions executes back to back and bulk-adds
//     its length to steps and Instrs without a limit check. A pure op
//     has no observable effect (no memory, no observer callback), so
//     an overrun inside the run is harmless as long as it is caught
//     before the next observable instruction — and it always is:
//     every effectful op checks before running, every block ends in a
//     checked control op or falls through to the dispatch loop's
//     check, and a loop can only close through a (checked) jump. On
//     that deferred error path steps, Instrs, the pure-op profile
//     counters and register contents may differ from the point where
//     the interpreter stopped, but every caller discards the profile
//     and all VM state when RunGroup fails, so the two engines remain
//     observationally identical;
//   - the summed profile delta of all the block's pure instructions is
//     counted once per execution, up front, as one increment of the
//     block's execution counter; the counters are folded into the
//     Profile once per group. On success every pure op ran (control
//     ops only end blocks), and on failure the profile is discarded.
//     The delta comes from the unmodified IR, so the tier-2 rewrites
//     (tier2.go), which only change the pIns a run executes, move no
//     count.

// countEff performs the in-block dispatch bookkeeping for one
// effectful instruction. It reports false when the step limit tripped,
// in which case the instruction must not run.
func (r *groupRunner) countEff(st *wiState) bool {
	st.pc++
	r.steps++
	if r.steps > r.limit {
		return false
	}
	r.prof.Instrs++
	return true
}

// bpart is one segment of a compiled block: either a run of
// pre-decoded pure instructions (eff nil) with its pc/step bump, or
// one effectful instruction with its in-block bookkeeping flag.
type bpart struct {
	run     []pIns
	ki      int
	eff     cop
	counted bool
}

// blockCompiler carries the per-instruction pre-decode and the tier-2
// liveness through the compilation of one kernel's blocks.
type blockCompiler struct {
	code     []ir.Instr
	pures    []pIns
	deltas   []pureDelta
	isPure   []bool
	isInline []bool
	ops      []cop
	t2       *tier2
	// counted collects each compiled block's pure profile delta, in
	// counter order.
	counted []pureDelta
	// ps and srcs are reused run buffers; fuseRun copies the result out.
	ps   []pIns
	srcs []*ir.Instr
}

func (bc *blockCompiler) inRun(i int) bool { return bc.isPure[i] || bc.isInline[i] }

// compileBlock builds the superinstruction closure for the block
// code[start:end]: pure runs (tier-2 rewritten, then multiply-add pairs
// fused) and inline scalar memory accesses merge into contiguous pIns
// segments, the remaining effectful instructions stay closure parts, a
// closing jump runs inline, and all the step/pc bookkeeping is resolved
// at compile time.
//
// acc tracks how many of the block's instructions are already
// accounted at each point: the dispatch loop pre-counts the first
// (acc starts at 1), every inline memory access syncs its own pre
// count, each segment flushes its unaccounted tail through ki, and
// closure parts count themselves through the counted flag.
func (bc *blockCompiler) compileBlock(start, end int) cop {
	code, t2 := bc.code, bc.t2

	// The live set after each pure run, walking the block backward from
	// its live-out.
	runLive := make([]bitset, end-start)
	live := t2.blockBuf
	copy(live, t2.liveOut[start])
	for i := end - 1; i >= start; i-- {
		if bc.inRun(i) && (i == end-1 || !bc.inRun(i+1)) {
			runLive[i-start] = append(bitset(nil), live...)
		}
		t2.transferIR(live, &code[i])
	}

	term := bterm{end: end}
	last := end
	switch in := &code[end-1]; in.Op {
	case ir.Jmp, ir.JmpIf, ir.JmpIfZ:
		term.op, term.b, term.target = in.Op, int(in.B), int(in.Imm)
		last = end - 1
	}

	var parts []bpart
	var total pureDelta
	acc := 1 // instructions accounted so far (dispatch counts the first)
	idx := 0 // instruction index within the block
	for i := start; i < last; {
		if bc.inRun(i) {
			ps, srcs := bc.ps[:0], bc.srcs[:0]
			for i < last && bc.inRun(i) {
				in := bc.pures[i]
				if bc.isPure[i] {
					total.accum(&bc.deltas[i])
				} else {
					in.pre = uint16(idx + 1 - acc)
					acc = idx + 1
				}
				ps = append(ps, in)
				srcs = append(srcs, &code[i])
				idx++
				i++
			}
			bc.ps, bc.srcs = ps, srcs
			ps = t2.rewriteRun(ps, srcs, runLive[i-1-start])
			parts = append(parts, bpart{run: fuseRun(ps), ki: idx - acc})
			acc = idx
			continue
		}
		parts = append(parts, bpart{eff: bc.ops[i], counted: acc != idx+1})
		acc = idx + 1
		idx++
		i++
	}
	ci := len(bc.counted)
	bc.counted = append(bc.counted, total)
	return blockOp(parts, term, ci)
}

// bterm is a block's closing jump, run inside the block closure
// instead of through a closure call of its own (op is ir.Nop when the
// block does not end in a jump). end is the fallthrough pc.
type bterm struct {
	op     ir.Op
	b      int
	target int
	end    int
}

// jump performs the closing jump once the block's bookkeeping has
// counted it.
func (t *bterm) jump(st *wiState) {
	switch t.op {
	case ir.Jmp:
		st.pc = t.target
	case ir.JmpIf:
		if st.ii[t.b] != 0 {
			st.pc = t.target
		} else {
			st.pc = t.end
		}
	case ir.JmpIfZ:
		if st.ii[t.b] == 0 {
			st.pc = t.target
		} else {
			st.pc = t.end
		}
	}
}

// blockOp drives the block's parts under one closure, counting one
// execution of the block (its aggregate pure profile delta) in counter
// ci. The dominant shapes — one pure run closing with a jump, and one
// pure run feeding one effectful/control instruction — are
// specialized. A closing jump is always counted: it is never the
// block's first instruction, and every part before it leaves all
// earlier instructions accounted.
func blockOp(parts []bpart, term bterm, ci int) cop {
	if len(parts) == 1 && parts[0].eff == nil && term.op != ir.Nop {
		run := parts[0].run
		k := uint64(parts[0].ki) + 1
		b, target, end := term.b, term.target, term.end
		switch term.op {
		case ir.Jmp:
			return func(r *groupRunner, st *wiState) error {
				r.counts[ci]++
				if err := runPure(r, st, run); err != nil {
					return err
				}
				r.steps += k
				if r.steps > r.limit {
					return ErrStepLimit
				}
				r.prof.Instrs += k
				st.pc = target
				return nil
			}
		case ir.JmpIf:
			return func(r *groupRunner, st *wiState) error {
				r.counts[ci]++
				if err := runPure(r, st, run); err != nil {
					return err
				}
				r.steps += k
				if r.steps > r.limit {
					return ErrStepLimit
				}
				r.prof.Instrs += k
				if st.ii[b] != 0 {
					st.pc = target
				} else {
					st.pc = end
				}
				return nil
			}
		default:
			return func(r *groupRunner, st *wiState) error {
				r.counts[ci]++
				if err := runPure(r, st, run); err != nil {
					return err
				}
				r.steps += k
				if r.steps > r.limit {
					return ErrStepLimit
				}
				r.prof.Instrs += k
				if st.ii[b] == 0 {
					st.pc = target
				} else {
					st.pc = end
				}
				return nil
			}
		}
	}
	if len(parts) == 2 && parts[0].eff == nil && parts[1].eff != nil && term.op == ir.Nop {
		run, ki := parts[0].run, parts[0].ki
		k := uint64(ki)
		eff := parts[1].eff
		return func(r *groupRunner, st *wiState) error {
			r.counts[ci]++
			if err := runPure(r, st, run); err != nil {
				return err
			}
			st.pc += ki
			r.steps += k
			r.prof.Instrs += k
			if !r.countEff(st) {
				return ErrStepLimit
			}
			return eff(r, st)
		}
	}
	return func(r *groupRunner, st *wiState) error {
		r.counts[ci]++
		for i := range parts {
			p := &parts[i]
			if p.eff == nil {
				if err := runPure(r, st, p.run); err != nil {
					return err
				}
				st.pc += p.ki
				r.steps += uint64(p.ki)
				r.prof.Instrs += uint64(p.ki)
				continue
			}
			if p.counted {
				if !r.countEff(st) {
					return ErrStepLimit
				}
			}
			if err := p.eff(r, st); err != nil {
				return err
			}
		}
		if term.op != ir.Nop {
			if !r.countEff(st) {
				return ErrStepLimit
			}
			term.jump(st)
		}
		return nil
	}
}

// fuseRun peepholes a pure run: a multiply directly followed by an add
// that consumes its result becomes one multiply-add superinstruction
// (both destinations still written, so later readers of the product
// are unaffected). The run's instruction and profile accounting uses
// the pre-fusion length — fusion only removes dispatch iterations.
func fuseRun(ps []pIns) []pIns {
	out := make([]pIns, 0, len(ps))
	for i := 0; i < len(ps); i++ {
		if i+1 < len(ps) {
			if f, ok := fusePair(&ps[i], &ps[i+1]); ok {
				out = append(out, f)
				i++
				continue
			}
		}
		out = append(out, ps[i])
	}
	return out
}

// fusePair fuses mul+add when the add reads the product. Integer
// addition commutes exactly, so one kind covers both operand orders;
// float kinds preserve the operand order to keep NaN propagation
// bit-identical to the interpreter. The second add operand's register
// travels in imm.
func fusePair(m, a *pIns) (pIns, bool) {
	switch m.kind {
	case pMulI64:
		if a.kind != pAddI64 {
			return pIns{}, false
		}
	case pMulI32:
		if a.kind != pAddI32 {
			return pIns{}, false
		}
	case pMulF32:
		if a.kind != pAddF32 {
			return pIns{}, false
		}
	case pMulF64:
		if a.kind != pAddF64 {
			return pIns{}, false
		}
	default:
		return pIns{}, false
	}
	var other int32
	left := false
	switch m.a {
	case a.b:
		other, left = a.c, true
	case a.c:
		other = a.b
	default:
		return pIns{}, false
	}
	f := pIns{a: m.a, b: m.b, c: m.c, d: a.a, imm: int64(other)}
	switch m.kind {
	case pMulI64:
		f.kind = pMaddI64
	case pMulI32:
		f.kind = pMaddI32
	case pMulF32:
		f.kind = pMaddF32R
		if left {
			f.kind = pMaddF32L
		}
	default:
		f.kind = pMaddF64R
		if left {
			f.kind = pMaddF64L
		}
	}
	return f, true
}

// syncEff settles the deferred in-block bookkeeping before an inline
// effectful instruction runs: pre covers the pure instructions since
// the last sync point plus the instruction itself. Reports false when
// the step limit tripped, in which case the instruction must not run.
func (r *groupRunner) syncEff(st *wiState, pre uint16) bool {
	st.pc += int(pre)
	r.steps += uint64(pre)
	if r.steps > r.limit {
		return false
	}
	r.prof.Instrs += uint64(pre)
	return true
}

// runPure executes one pre-decoded block-program segment: pure
// instructions plus inline scalar memory accesses. The switch bodies
// mirror the interpreter cases in exec.go exactly (wrapping, float32
// rounding, dimension clamping, access order); pure profile counting
// is the caller's aggregated delta, memory kinds count themselves like
// the interpreter does.
func runPure(r *groupRunner, st *wiState, ins []pIns) error {
	ii, ff := st.ii, st.ff
	for idx := range ins {
		in := &ins[idx]
		switch in.kind {
		case pFn:
			in.fn(r, st)

		case pLoadF32, pLoadF64, pLoadInt:
			if !r.syncEff(st, in.pre) {
				return ErrStepLimit
			}
			addr := ii[in.b]
			space, off := ir.DecodeAddr(addr)
			size := int(in.size)
			p := r.prof
			p.LoadInstrs++
			p.LSSlots128++
			p.LSLanes++
			if space == ir.SpacePrivate {
				p.PrivateAccesses++
			}
			p.BytesRead[space&3] += uint64(size)
			if r.cfg.Observer != nil {
				if r.ctxObs != nil {
					r.ctxObs.OnContext(r.item, r.phase, int(in.d))
				}
				r.cfg.Observer.OnAccess(space, addr, size, false)
			}
			var bits uint64
			var err error
			switch space {
			case ir.SpaceLocal:
				bits, err = sliceLoad(r.local, off, size)
			case ir.SpacePrivate:
				bits, err = sliceLoad(st.priv, off, size)
			default:
				bits, err = r.cfg.Mem.LoadBits(space, off, size)
			}
			if err != nil {
				return err
			}
			switch in.kind {
			case pLoadF32:
				ff[in.a] = float64(math.Float32frombits(uint32(bits)))
			case pLoadF64:
				ff[in.a] = math.Float64frombits(bits)
			default:
				ii[in.a] = bitsToInt(types.Base(in.base), bits)
			}

		case pStoreF32, pStoreF64, pStoreInt:
			if !r.syncEff(st, in.pre) {
				return ErrStepLimit
			}
			addr := ii[in.b]
			space, off := ir.DecodeAddr(addr)
			size := int(in.size)
			p := r.prof
			p.StoreInstrs++
			p.LSSlots128++
			p.LSLanes++
			if space == ir.SpacePrivate {
				p.PrivateAccesses++
			}
			p.BytesWritten[space&3] += uint64(size)
			if r.cfg.Observer != nil {
				if r.ctxObs != nil {
					r.ctxObs.OnContext(r.item, r.phase, int(in.d))
				}
				r.cfg.Observer.OnAccess(space, addr, size, true)
			}
			var bits uint64
			switch in.kind {
			case pStoreF32:
				bits = uint64(math.Float32bits(float32(ff[in.a])))
			case pStoreF64:
				bits = math.Float64bits(ff[in.a])
			default:
				bits = intToBits(types.Base(in.base), ii[in.a])
			}
			var err error
			switch space {
			case ir.SpaceLocal:
				err = sliceStore(r.local, off, size, bits)
			case ir.SpacePrivate:
				err = sliceStore(st.priv, off, size, bits)
			default:
				err = r.cfg.Mem.StoreBits(space, off, size, bits)
			}
			if err != nil {
				return err
			}

		case pMovI:
			ii[in.a] = ii[in.b]
		case pMovF:
			ff[in.a] = ff[in.b]
		case pImmI:
			ii[in.a] = in.imm
		case pImmF:
			ff[in.a] = in.fimm

		case pAddI64:
			ii[in.a] = ii[in.b] + ii[in.c]
		case pSubI64:
			ii[in.a] = ii[in.b] - ii[in.c]
		case pMulI64:
			ii[in.a] = ii[in.b] * ii[in.c]
		case pAddI32:
			ii[in.a] = int64(int32(ii[in.b] + ii[in.c]))
		case pSubI32:
			ii[in.a] = int64(int32(ii[in.b] - ii[in.c]))
		case pMulI32:
			ii[in.a] = int64(int32(ii[in.b] * ii[in.c]))
		case pAddU32:
			ii[in.a] = int64(uint32(ii[in.b] + ii[in.c]))
		case pSubU32:
			ii[in.a] = int64(uint32(ii[in.b] - ii[in.c]))
		case pMulU32:
			ii[in.a] = int64(uint32(ii[in.b] * ii[in.c]))
		case pAndI64:
			ii[in.a] = ii[in.b] & ii[in.c]
		case pOrI64:
			ii[in.a] = ii[in.b] | ii[in.c]
		case pXorI64:
			ii[in.a] = ii[in.b] ^ ii[in.c]
		case pShlI64:
			ii[in.a] = ii[in.b] << (uint64(ii[in.c]) & 63)
		case pShlI32:
			ii[in.a] = int64(int32(ii[in.b] << (uint64(ii[in.c]) & 31)))
		case pShrS64:
			ii[in.a] = ii[in.b] >> (uint64(ii[in.c]) & 63)
		case pShrS32:
			ii[in.a] = int64(int32(ii[in.b] >> (uint64(ii[in.c]) & 31)))

		case pAddF32:
			ff[in.a] = float64(float32(ff[in.b] + ff[in.c]))
		case pSubF32:
			ff[in.a] = float64(float32(ff[in.b] - ff[in.c]))
		case pMulF32:
			ff[in.a] = float64(float32(ff[in.b] * ff[in.c]))
		case pDivF32:
			ff[in.a] = float64(float32(ff[in.b] / ff[in.c]))
		case pAddF64:
			ff[in.a] = ff[in.b] + ff[in.c]
		case pSubF64:
			ff[in.a] = ff[in.b] - ff[in.c]
		case pMulF64:
			ff[in.a] = ff[in.b] * ff[in.c]
		case pDivF64:
			ff[in.a] = ff[in.b] / ff[in.c]
		case pNegF32:
			ff[in.a] = float64(float32(-ff[in.b]))
		case pNegF64:
			ff[in.a] = -ff[in.b]

		case pMaddI64:
			t := ii[in.b] * ii[in.c]
			ii[in.a] = t
			ii[in.d] = t + ii[in.imm]
		case pMaddI32:
			t := int64(int32(ii[in.b] * ii[in.c]))
			ii[in.a] = t
			ii[in.d] = int64(int32(t + ii[in.imm]))
		case pMaddF32L:
			t := float64(float32(ff[in.b] * ff[in.c]))
			ff[in.a] = t
			ff[in.d] = float64(float32(t + ff[in.imm]))
		case pMaddF32R:
			t := float64(float32(ff[in.b] * ff[in.c]))
			ff[in.a] = t
			ff[in.d] = float64(float32(ff[in.imm] + t))
		case pMaddF64L:
			t := ff[in.b] * ff[in.c]
			ff[in.a] = t
			ff[in.d] = t + ff[in.imm]
		case pMaddF64R:
			t := ff[in.b] * ff[in.c]
			ff[in.a] = t
			ff[in.d] = ff[in.imm] + t

		case pCmpEqI:
			if ii[in.b] == ii[in.c] {
				ii[in.a] = 1
			} else {
				ii[in.a] = 0
			}
		case pCmpNeI:
			if ii[in.b] != ii[in.c] {
				ii[in.a] = 1
			} else {
				ii[in.a] = 0
			}
		case pCmpLtS:
			if ii[in.b] < ii[in.c] {
				ii[in.a] = 1
			} else {
				ii[in.a] = 0
			}
		case pCmpLtU:
			if uint64(ii[in.b]) < uint64(ii[in.c]) {
				ii[in.a] = 1
			} else {
				ii[in.a] = 0
			}
		case pCmpLeS:
			if ii[in.b] <= ii[in.c] {
				ii[in.a] = 1
			} else {
				ii[in.a] = 0
			}
		case pCmpLeU:
			if uint64(ii[in.b]) <= uint64(ii[in.c]) {
				ii[in.a] = 1
			} else {
				ii[in.a] = 0
			}
		case pCmpEqF:
			if ff[in.b] == ff[in.c] {
				ii[in.a] = 1
			} else {
				ii[in.a] = 0
			}
		case pCmpNeF:
			if ff[in.b] != ff[in.c] {
				ii[in.a] = 1
			} else {
				ii[in.a] = 0
			}
		case pCmpLtF:
			if ff[in.b] < ff[in.c] {
				ii[in.a] = 1
			} else {
				ii[in.a] = 0
			}
		case pCmpLeF:
			if ff[in.b] <= ff[in.c] {
				ii[in.a] = 1
			} else {
				ii[in.a] = 0
			}

		case pSelI:
			if ii[in.b] != 0 {
				ii[in.a] = ii[in.c]
			} else {
				ii[in.a] = ii[in.d]
			}
		case pSelF:
			if ii[in.b] != 0 {
				ff[in.a] = ff[in.c]
			} else {
				ff[in.a] = ff[in.d]
			}

		case pCvtII32:
			ii[in.a] = int64(int32(ii[in.b]))
		case pCvtIIU32:
			ii[in.a] = int64(uint32(ii[in.b]))
		case pCvtSF64:
			ff[in.a] = float64(ii[in.b])
		case pCvtSF32:
			ff[in.a] = float64(float32(float64(ii[in.b])))
		case pCvtUF64:
			ff[in.a] = float64(uint64(ii[in.b]))
		case pCvtUF32:
			ff[in.a] = float64(float32(float64(uint64(ii[in.b]))))
		case pCvtFF32:
			ff[in.a] = float64(float32(ff[in.b]))

		case pGlobalID:
			dim := int(ii[in.b])
			if dim < 0 || dim > 2 {
				dim = 0
			}
			ii[in.a] = int64(r.cfg.GroupID[dim]*dimOr1(r.cfg.LocalSize, dim) + r.localID[dim] + r.cfg.GlobalOffset[dim])
		case pLocalID:
			dim := int(ii[in.b])
			if dim < 0 || dim > 2 {
				dim = 0
			}
			ii[in.a] = int64(r.localID[dim])
		case pGroupID:
			dim := int(ii[in.b])
			if dim < 0 || dim > 2 {
				dim = 0
			}
			ii[in.a] = int64(r.cfg.GroupID[dim])
		case pGlobalSize:
			dim := int(ii[in.b])
			if dim < 0 || dim > 2 {
				dim = 0
			}
			ii[in.a] = int64(dimOr1(r.cfg.GlobalSize, dim))
		case pLocalSize:
			dim := int(ii[in.b])
			if dim < 0 || dim > 2 {
				dim = 0
			}
			ii[in.a] = int64(dimOr1(r.cfg.LocalSize, dim))
		case pNumGroups:
			dim := int(ii[in.b])
			if dim < 0 || dim > 2 {
				dim = 0
			}
			ii[in.a] = int64(dimOr1(r.cfg.GlobalSize, dim) / dimOr1(r.cfg.LocalSize, dim))
		case pGlobalOffset:
			dim := int(ii[in.b])
			if dim < 0 || dim > 2 {
				dim = 0
			}
			ii[in.a] = int64(r.cfg.GlobalOffset[dim])
		case pWorkDim:
			ii[in.a] = int64(r.cfg.WorkDim)
		}
	}
	return nil
}

// genInline pre-decodes a scalar load or store into its inline block
// program form (the pre sync count is filled in by compileBlock).
// Vector accesses keep their genLoad/genStore closures.
func genInline(in *ir.Instr) (pIns, bool) {
	w := int(in.Width)
	if w == 0 {
		w = 1
	}
	if w != 1 {
		return pIns{}, false
	}
	p := pIns{
		a:    in.A,
		b:    in.B,
		d:    int32(in.Pos.Line),
		base: uint8(in.Base),
		size: uint16(in.Base.Size()),
	}
	switch in.Op {
	case ir.LoadF:
		p.kind = pLoadF64
		if in.Base == types.Float {
			p.kind = pLoadF32
		}
	case ir.LoadI:
		p.kind = pLoadInt
	case ir.StoreF:
		p.kind = pStoreF64
		if in.Base == types.Float {
			p.kind = pStoreF32
		}
	case ir.StoreI:
		p.kind = pStoreInt
	default:
		return pIns{}, false
	}
	return p, true
}

// runCompiled executes the current work-item on the compiled program
// until it returns or, when stopAtBarrier is set, until it executes a
// barrier. The loop bookkeeping is a line-for-line mirror of the
// interpreter's run(); each dispatch covers one basic block.
func (r *groupRunner) runCompiled(c *Compiled, st *wiState, stopAtBarrier bool) error {
	if st.pc == 0 && !st.atBar {
		r.bindArgs(st)
	}
	ops := c.ops
	for {
		pc := st.pc
		if pc < 0 || pc >= len(ops) {
			return fmt.Errorf("vm: pc %d out of range in kernel %s", pc, r.k.Name)
		}
		st.pc = pc + 1
		r.steps++
		if r.steps > r.limit {
			return ErrStepLimit
		}
		r.prof.Instrs++
		if err := ops[pc](r, st); err != nil {
			if err == errYield {
				if st.done {
					return nil
				}
				if stopAtBarrier {
					st.atBar = true
					return nil
				}
				// Barrier outside the resident-group path (single-item
				// groups / barrier-free fast path): no-op, like the
				// interpreter.
				continue
			}
			return err
		}
	}
}

// groupArena pools the per-group allocations of the compiled engine:
// the __local arena, the register files (reused across work-items in
// place of per-item allocation), the resident work-item states of the
// barrier path and the block execution counters.
type groupArena struct {
	ii     []int64
	ff     []float64
	priv   []byte
	local  []byte
	states []wiState
	coords [][3]int
	counts []uint64
}

var groupArenas = sync.Pool{New: func() any { return new(groupArena) }}

// grown returns s resized to n elements, reallocating only when the
// capacity is insufficient. Contents are unspecified; callers zero
// what they need.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset prepares a work-item state for a fresh run: zeroed registers
// and private memory, the constant slots filled.
func (c *Compiled) reset(st *wiState) {
	st.pc = 0
	st.done = false
	st.atBar = false
	copy(st.ii, c.initI)
	copy(st.ff, c.initF)
	clear(st.priv)
}

// runGroupCompiled is the compiled engine's work-group loop: it runs
// the work-items and then folds the block execution counters into the
// profile.
func (r *groupRunner) runGroupCompiled(localBytes, nloc int) error {
	c := compiledFor(r.k)
	ar := groupArenas.Get().(*groupArena)
	defer groupArenas.Put(ar)
	ar.counts = grown(ar.counts, len(c.deltas))
	clear(ar.counts)
	r.counts = ar.counts
	err := r.runItemsCompiled(c, ar, localBytes, nloc)
	for i, n := range r.counts {
		if n != 0 {
			c.deltas[i].addN(r.prof, n)
		}
	}
	return err
}

// runItemsCompiled is structurally identical to the interpreter paths
// in RunGroup but dispatches on the closure program and draws its
// state from the pooled group arena.
func (r *groupRunner) runItemsCompiled(c *Compiled, ar *groupArena, localBytes, nloc int) error {
	ar.local = grown(ar.local, localBytes)
	clear(ar.local)
	r.local = ar.local
	cfg := r.cfg
	k := r.k
	nI, nF := len(c.initI), len(c.initF)

	if !k.UsesBarrier {
		// Fast path: one register file, reset and reused per work-item.
		ar.ii = grown(ar.ii, nI)
		ar.ff = grown(ar.ff, nF)
		ar.priv = grown(ar.priv, k.PrivateBytes)
		st := wiState{ii: ar.ii, ff: ar.ff, priv: ar.priv}
		item := 0
		for lz := 0; lz < max(cfg.LocalSize[2], 1); lz++ {
			for ly := 0; ly < max(cfg.LocalSize[1], 1); ly++ {
				for lx := 0; lx < cfg.LocalSize[0]; lx++ {
					c.reset(&st)
					r.localID = [3]int{lx, ly, lz}
					r.cur = &st
					r.item = item
					item++
					if err := r.runCompiled(c, &st, false); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}

	// Barrier path: every work-item's registers live in one flat
	// per-group arena, sliced per item, instead of nloc separate
	// allocations.
	ar.ii = grown(ar.ii, nI*nloc)
	ar.ff = grown(ar.ff, nF*nloc)
	ar.priv = grown(ar.priv, k.PrivateBytes*nloc)
	ar.states = grown(ar.states, nloc)
	ar.coords = grown(ar.coords, nloc)
	states, coords := ar.states, ar.coords
	i := 0
	for lz := 0; lz < max(cfg.LocalSize[2], 1); lz++ {
		for ly := 0; ly < max(cfg.LocalSize[1], 1); ly++ {
			for lx := 0; lx < cfg.LocalSize[0]; lx++ {
				states[i] = wiState{
					ii:   ar.ii[i*nI : (i+1)*nI],
					ff:   ar.ff[i*nF : (i+1)*nF],
					priv: ar.priv[i*k.PrivateBytes : (i+1)*k.PrivateBytes],
				}
				c.reset(&states[i])
				coords[i] = [3]int{lx, ly, lz}
				i++
			}
		}
	}
	for phase := 0; ; phase++ {
		anyBar, anyDone, allFinished := false, false, true
		for i := range states {
			st := &states[i]
			if st.done {
				anyDone = true
				continue
			}
			r.localID = coords[i]
			r.cur = st
			r.item = i
			r.phase = phase
			if err := r.runCompiled(c, st, true); err != nil {
				return err
			}
			if st.done {
				anyDone = true
			} else {
				st.atBar = false // consumed below
				anyBar = true
				allFinished = false
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

// --- pure instruction pre-decoding -------------------------------------------

// genPure pre-decodes one pure IR instruction: the specialized kind
// (or a fallback closure) plus its static profile delta. Operand
// slots, widths, wrap/round behaviour and counts are resolved here, at
// compile time. The third result is false for anything that can fault,
// touch memory or call an observer — those stay with genOp.
func genPure(in *ir.Instr) (pIns, pureDelta, bool) {
	w := int(in.Width)
	if w == 0 {
		w = 1
	}
	a, b, c, d := int(in.A), int(in.B), int(in.C), int(in.D)
	base := in.Base
	none := pureDelta{}
	reg := pIns{a: in.A, b: in.B, c: in.C, d: in.D}
	intDelta := func() pureDelta {
		return pureDelta{intInstrs: 1, intLanes: uint64(w), slots: slots128(base, w)}
	}
	fltDelta := func() pureDelta {
		if base == types.Double {
			return pureDelta{f64Instrs: 1, f64Lanes: uint64(w), slots: slots128(base, w)}
		}
		return pureDelta{f32Instrs: 1, f32Lanes: uint64(w), slots: slots128(base, w)}
	}
	kind := func(k pKind) pIns { r := reg; r.kind = k; return r }

	switch in.Op {
	case ir.Nop:
		return fnIns(func(r *groupRunner, st *wiState) {}), none, true

	case ir.MovI:
		if w == 1 {
			return kind(pMovI), none, true
		}
		return fnIns(func(r *groupRunner, st *wiState) { copy(st.ii[a:a+w], st.ii[b:b+w]) }), none, true
	case ir.MovF:
		if w == 1 {
			return kind(pMovF), none, true
		}
		return fnIns(func(r *groupRunner, st *wiState) { copy(st.ff[a:a+w], st.ff[b:b+w]) }), none, true
	case ir.ImmI:
		imm := in.Imm
		if w == 1 {
			r := kind(pImmI)
			r.imm = imm
			return r, none, true
		}
		return fnIns(func(r *groupRunner, st *wiState) {
			for l := 0; l < w; l++ {
				st.ii[a+l] = imm
			}
		}), none, true
	case ir.ImmF:
		imm := in.FImm
		if w == 1 {
			r := kind(pImmF)
			r.fimm = imm
			return r, none, true
		}
		return fnIns(func(r *groupRunner, st *wiState) {
			for l := 0; l < w; l++ {
				st.ff[a+l] = imm
			}
		}), none, true
	case ir.BcastI:
		return fnIns(func(r *groupRunner, st *wiState) {
			v := st.ii[b]
			for l := 0; l < w; l++ {
				st.ii[a+l] = v
			}
		}), none, true
	case ir.BcastF:
		return fnIns(func(r *groupRunner, st *wiState) {
			v := st.ff[b]
			for l := 0; l < w; l++ {
				st.ff[a+l] = v
			}
		}), none, true

	case ir.AddI, ir.SubI, ir.MulI, ir.DivI, ir.RemI,
		ir.AndI, ir.OrI, ir.XorI, ir.ShlI, ir.ShrI:
		dl := intDelta()
		if w == 1 {
			if k, ok := intKind1(in.Op, base); ok {
				return kind(k), dl, true
			}
			fn := intBinFn(in.Op, base)
			return fnIns(func(r *groupRunner, st *wiState) { st.ii[a] = fn(st.ii[b], st.ii[c]) }), dl, true
		}
		fn := intBinFn(in.Op, base)
		return fnIns(func(r *groupRunner, st *wiState) {
			for l := 0; l < w; l++ {
				st.ii[a+l] = fn(st.ii[b+l], st.ii[c+l])
			}
		}), dl, true
	case ir.NegI:
		dl := intDelta()
		wrap := wrapFn(base)
		if w == 1 {
			return fnIns(func(r *groupRunner, st *wiState) { st.ii[a] = wrap(-st.ii[b]) }), dl, true
		}
		return fnIns(func(r *groupRunner, st *wiState) {
			for l := 0; l < w; l++ {
				st.ii[a+l] = wrap(-st.ii[b+l])
			}
		}), dl, true
	case ir.NotI:
		dl := intDelta()
		wrap := wrapFn(base)
		if w == 1 {
			return fnIns(func(r *groupRunner, st *wiState) { st.ii[a] = wrap(^st.ii[b]) }), dl, true
		}
		return fnIns(func(r *groupRunner, st *wiState) {
			for l := 0; l < w; l++ {
				st.ii[a+l] = wrap(^st.ii[b+l])
			}
		}), dl, true

	case ir.AddF, ir.SubF, ir.MulF, ir.DivF:
		dl := fltDelta()
		if w == 1 {
			return kind(fltKind1(in.Op, base)), dl, true
		}
		fn := fltBinFn(in.Op, base)
		return fnIns(func(r *groupRunner, st *wiState) {
			for l := 0; l < w; l++ {
				st.ff[a+l] = fn(st.ff[b+l], st.ff[c+l])
			}
		}), dl, true
	case ir.NegF:
		dl := fltDelta()
		f32 := base == types.Float
		if w == 1 {
			if f32 {
				return kind(pNegF32), dl, true
			}
			return kind(pNegF64), dl, true
		}
		return fnIns(func(r *groupRunner, st *wiState) {
			for l := 0; l < w; l++ {
				v := -st.ff[b+l]
				if f32 {
					v = float64(float32(v))
				}
				st.ff[a+l] = v
			}
		}), dl, true

	case ir.CmpEqI, ir.CmpNeI, ir.CmpLtI, ir.CmpLeI:
		dl := intDelta()
		if w == 1 {
			signed := base.IsSigned()
			switch in.Op {
			case ir.CmpEqI:
				return kind(pCmpEqI), dl, true
			case ir.CmpNeI:
				return kind(pCmpNeI), dl, true
			case ir.CmpLtI:
				if signed {
					return kind(pCmpLtS), dl, true
				}
				return kind(pCmpLtU), dl, true
			default:
				if signed {
					return kind(pCmpLeS), dl, true
				}
				return kind(pCmpLeU), dl, true
			}
		}
		fn := intCmpFn(in.Op, base)
		return fnIns(func(r *groupRunner, st *wiState) {
			for l := 0; l < w; l++ {
				if fn(st.ii[b+l], st.ii[c+l]) {
					st.ii[a+l] = 1
				} else {
					st.ii[a+l] = 0
				}
			}
		}), dl, true
	case ir.CmpEqF, ir.CmpNeF, ir.CmpLtF, ir.CmpLeF:
		dl := fltDelta()
		if w == 1 {
			switch in.Op {
			case ir.CmpEqF:
				return kind(pCmpEqF), dl, true
			case ir.CmpNeF:
				return kind(pCmpNeF), dl, true
			case ir.CmpLtF:
				return kind(pCmpLtF), dl, true
			default:
				return kind(pCmpLeF), dl, true
			}
		}
		fn := fltCmpFn(in.Op)
		return fnIns(func(r *groupRunner, st *wiState) {
			for l := 0; l < w; l++ {
				if fn(st.ff[b+l], st.ff[c+l]) {
					st.ii[a+l] = 1
				} else {
					st.ii[a+l] = 0
				}
			}
		}), dl, true

	case ir.SelI:
		dl := intDelta()
		if w == 1 {
			return kind(pSelI), dl, true
		}
		return fnIns(func(r *groupRunner, st *wiState) {
			for l := 0; l < w; l++ {
				if st.ii[b+l] != 0 {
					st.ii[a+l] = st.ii[c+l]
				} else {
					st.ii[a+l] = st.ii[d+l]
				}
			}
		}), dl, true
	case ir.SelF:
		dl := fltDelta()
		if w == 1 {
			return kind(pSelF), dl, true
		}
		return fnIns(func(r *groupRunner, st *wiState) {
			for l := 0; l < w; l++ {
				if st.ii[b+l] != 0 {
					st.ff[a+l] = st.ff[c+l]
				} else {
					st.ff[a+l] = st.ff[d+l]
				}
			}
		}), dl, true

	case ir.CvtII:
		dl := intDelta()
		if w == 1 {
			switch base {
			case types.Long, types.ULong:
				return kind(pMovI), dl, true
			case types.Int:
				return kind(pCvtII32), dl, true
			case types.UInt:
				return kind(pCvtIIU32), dl, true
			}
		}
		isBool := base == types.Bool
		wrap := wrapFn(base)
		return fnIns(func(r *groupRunner, st *wiState) {
			for l := 0; l < w; l++ {
				v := st.ii[b+l]
				if isBool {
					if v != 0 {
						v = 1
					}
				} else {
					v = wrap(v)
				}
				st.ii[a+l] = v
			}
		}), dl, true
	case ir.CvtIF:
		dl := fltDelta()
		f32 := base == types.Float
		srcSigned := in.Base2.IsSigned() || in.Base2 == types.Bool
		if w == 1 {
			switch {
			case srcSigned && f32:
				return kind(pCvtSF32), dl, true
			case srcSigned:
				return kind(pCvtSF64), dl, true
			case f32:
				return kind(pCvtUF32), dl, true
			default:
				return kind(pCvtUF64), dl, true
			}
		}
		return fnIns(func(r *groupRunner, st *wiState) {
			for l := 0; l < w; l++ {
				var f float64
				if srcSigned {
					f = float64(st.ii[b+l])
				} else {
					f = float64(uint64(st.ii[b+l]))
				}
				if f32 {
					f = float64(float32(f))
				}
				st.ff[a+l] = f
			}
		}), dl, true
	case ir.CvtFI:
		dl := intDelta()
		wrap := wrapFn(base)
		return fnIns(func(r *groupRunner, st *wiState) {
			for l := 0; l < w; l++ {
				f := st.ff[b+l]
				var v int64
				switch {
				case math.IsNaN(f):
					v = 0
				case f >= math.MaxInt64:
					v = math.MaxInt64
				case f <= math.MinInt64:
					v = math.MinInt64
				default:
					v = int64(f)
				}
				st.ii[a+l] = wrap(v)
			}
		}), dl, true
	case ir.CvtFF:
		dl := fltDelta()
		f32 := base == types.Float
		if w == 1 {
			if f32 {
				return kind(pCvtFF32), dl, true
			}
			return kind(pMovF), dl, true
		}
		return fnIns(func(r *groupRunner, st *wiState) {
			for l := 0; l < w; l++ {
				v := st.ff[b+l]
				if f32 {
					v = float64(float32(v))
				}
				st.ff[a+l] = v
			}
		}), dl, true

	case ir.CallB:
		// Work-item queries — by far the hottest builtins, every
		// kernel's prologue calls them — are pure; everything else goes
		// through the interpreter's execBuiltin.
		id := builtin.ID(in.Imm)
		dl := pureDelta{intInstrs: 1, intLanes: 1}
		switch id {
		case builtin.GetWorkDim:
			return kind(pWorkDim), dl, true
		case builtin.GetGlobalID:
			return kind(pGlobalID), dl, true
		case builtin.GetLocalID:
			return kind(pLocalID), dl, true
		case builtin.GetGroupID:
			return kind(pGroupID), dl, true
		case builtin.GetGlobalSize:
			return kind(pGlobalSize), dl, true
		case builtin.GetLocalSize:
			return kind(pLocalSize), dl, true
		case builtin.GetNumGroups:
			return kind(pNumGroups), dl, true
		case builtin.GetGlobalOffset:
			return kind(pGlobalOffset), dl, true
		}
		return pIns{}, none, false
	}
	return pIns{}, none, false
}

// intKind1 maps a scalar integer binary op to its pre-decoded kind.
// Bases whose wrapping the switch does not model (char/short/bool, the
// rarer shifts and divisions) fall back to a closure.
func intKind1(op ir.Op, base types.Base) (pKind, bool) {
	switch base {
	case types.Long, types.ULong: // wrapping is the identity
		switch op {
		case ir.AddI:
			return pAddI64, true
		case ir.SubI:
			return pSubI64, true
		case ir.MulI:
			return pMulI64, true
		case ir.AndI:
			return pAndI64, true
		case ir.OrI:
			return pOrI64, true
		case ir.XorI:
			return pXorI64, true
		case ir.ShlI:
			return pShlI64, true
		case ir.ShrI:
			if base == types.Long {
				return pShrS64, true
			}
		}
	case types.Int:
		switch op {
		case ir.AddI:
			return pAddI32, true
		case ir.SubI:
			return pSubI32, true
		case ir.MulI:
			return pMulI32, true
		case ir.ShlI:
			return pShlI32, true
		case ir.ShrI:
			return pShrS32, true
		}
	case types.UInt:
		switch op {
		case ir.AddI:
			return pAddU32, true
		case ir.SubI:
			return pSubU32, true
		case ir.MulI:
			return pMulU32, true
		}
	}
	return pFn, false
}

// fltKind1 maps a scalar float binary op to its pre-decoded kind, with
// the float32 rounding folded into the kind.
func fltKind1(op ir.Op, base types.Base) pKind {
	if base == types.Float {
		switch op {
		case ir.AddF:
			return pAddF32
		case ir.SubF:
			return pSubF32
		case ir.MulF:
			return pMulF32
		default:
			return pDivF32
		}
	}
	switch op {
	case ir.AddF:
		return pAddF64
	case ir.SubF:
		return pSubF64
	case ir.MulF:
		return pMulF64
	default:
		return pDivF64
	}
}

// --- effectful and control instruction compilation ---------------------------

// genOp compiles one effectful or control IR instruction into its
// closure. Operand slots, widths and profile increments are resolved
// here, at compile time; the closure bodies mirror the interpreter
// cases in exec.go instruction for instruction. Pure instructions
// never reach genOp — genPure handles them. The closures carry no
// dispatch bookkeeping of their own: the dispatch loop supplies it for
// slot dispatches and blockOp for in-block positions.
func genOp(in *ir.Instr) cop {
	w := int(in.Width)
	if w == 0 {
		w = 1
	}
	b := int(in.B)

	switch in.Op {
	case ir.LoadI, ir.LoadF:
		return genLoad(in, w)
	case ir.StoreI, ir.StoreF:
		return genStore(in, w)

	case ir.CallB:
		inp := in
		return func(r *groupRunner, st *wiState) error { return r.execBuiltin(inp, st, w) }
	case ir.AtomicOp:
		inp := in
		return func(r *groupRunner, st *wiState) error { return r.execAtomic(inp, st) }
	case ir.BarrierOp:
		return func(r *groupRunner, st *wiState) error {
			r.prof.Barriers++
			return errYield
		}

	case ir.Jmp:
		t := int(in.Imm)
		return func(r *groupRunner, st *wiState) error { st.pc = t; return nil }
	case ir.JmpIf:
		t := int(in.Imm)
		return func(r *groupRunner, st *wiState) error {
			if st.ii[b] != 0 {
				st.pc = t
			}
			return nil
		}
	case ir.JmpIfZ:
		t := int(in.Imm)
		return func(r *groupRunner, st *wiState) error {
			if st.ii[b] == 0 {
				st.pc = t
			}
			return nil
		}
	case ir.Ret:
		return func(r *groupRunner, st *wiState) error {
			st.done = true
			return errYield
		}
	default:
		op := in.Op
		return func(r *groupRunner, st *wiState) error {
			return fmt.Errorf("vm: unknown opcode %v", op)
		}
	}
}

// genLoad compiles LoadI/LoadF with the element size, issue slots,
// traffic accounting and the source line pre-resolved. The bodies
// mirror execLoad; scalar loads decode the address space once and go
// straight to the backing memory.
func genLoad(in *ir.Instr, w int) cop {
	size := in.Base.Size()
	slots := slots128(in.Base, w)
	lanes := uint64(w)
	szw := size * w
	bytes := uint64(szw)
	line := in.Pos.Line
	a, b := int(in.A), int(in.B)
	base := in.Base

	if w == 1 {
		isF := in.Op == ir.LoadF
		f32 := base == types.Float
		return func(r *groupRunner, st *wiState) error {
			addr := st.ii[b]
			space, off := ir.DecodeAddr(addr)
			p := r.prof
			p.LoadInstrs++
			p.LSSlots128 += slots
			p.LSLanes++
			if space == ir.SpacePrivate {
				p.PrivateAccesses++
			}
			p.BytesRead[space&3] += bytes
			if r.cfg.Observer != nil {
				if r.ctxObs != nil {
					r.ctxObs.OnContext(r.item, r.phase, line)
				}
				r.cfg.Observer.OnAccess(space, addr, szw, false)
			}
			var bits uint64
			var err error
			switch space {
			case ir.SpaceLocal:
				bits, err = sliceLoad(r.local, off, size)
			case ir.SpacePrivate:
				bits, err = sliceLoad(st.priv, off, size)
			default:
				bits, err = r.cfg.Mem.LoadBits(space, off, size)
			}
			if err != nil {
				return err
			}
			switch {
			case !isF:
				st.ii[a] = bitsToInt(base, bits)
			case f32:
				st.ff[a] = float64(math.Float32frombits(uint32(bits)))
			default:
				st.ff[a] = math.Float64frombits(bits)
			}
			return nil
		}
	}

	if in.Op == ir.LoadF {
		f32 := base == types.Float
		return func(r *groupRunner, st *wiState) error {
			addr := st.ii[b]
			space, _ := ir.DecodeAddr(addr)
			p := r.prof
			p.LoadInstrs++
			p.LSSlots128 += slots
			p.LSLanes += lanes
			if space == ir.SpacePrivate {
				p.PrivateAccesses++
			}
			p.BytesRead[space&3] += bytes
			if r.cfg.Observer != nil {
				if r.ctxObs != nil {
					r.ctxObs.OnContext(r.item, r.phase, line)
				}
				r.cfg.Observer.OnAccess(space, addr, szw, false)
			}
			for l := 0; l < w; l++ {
				bits, err := r.loadBits(addr+int64(l*size), size)
				if err != nil {
					return err
				}
				if f32 {
					st.ff[a+l] = float64(math.Float32frombits(uint32(bits)))
				} else {
					st.ff[a+l] = math.Float64frombits(bits)
				}
			}
			return nil
		}
	}
	return func(r *groupRunner, st *wiState) error {
		addr := st.ii[b]
		space, _ := ir.DecodeAddr(addr)
		p := r.prof
		p.LoadInstrs++
		p.LSSlots128 += slots
		p.LSLanes += lanes
		if space == ir.SpacePrivate {
			p.PrivateAccesses++
		}
		p.BytesRead[space&3] += bytes
		if r.cfg.Observer != nil {
			if r.ctxObs != nil {
				r.ctxObs.OnContext(r.item, r.phase, line)
			}
			r.cfg.Observer.OnAccess(space, addr, szw, false)
		}
		for l := 0; l < w; l++ {
			bits, err := r.loadBits(addr+int64(l*size), size)
			if err != nil {
				return err
			}
			st.ii[a+l] = bitsToInt(base, bits)
		}
		return nil
	}
}

// genStore compiles StoreI/StoreF; the bodies mirror execStore, with
// the scalar form decoding the address space once.
func genStore(in *ir.Instr, w int) cop {
	size := in.Base.Size()
	slots := slots128(in.Base, w)
	lanes := uint64(w)
	szw := size * w
	bytes := uint64(szw)
	line := in.Pos.Line
	a, b := int(in.A), int(in.B)
	base := in.Base

	if w == 1 {
		isF := in.Op == ir.StoreF
		f32 := base == types.Float
		return func(r *groupRunner, st *wiState) error {
			addr := st.ii[b]
			space, off := ir.DecodeAddr(addr)
			p := r.prof
			p.StoreInstrs++
			p.LSSlots128 += slots
			p.LSLanes++
			if space == ir.SpacePrivate {
				p.PrivateAccesses++
			}
			p.BytesWritten[space&3] += bytes
			if r.cfg.Observer != nil {
				if r.ctxObs != nil {
					r.ctxObs.OnContext(r.item, r.phase, line)
				}
				r.cfg.Observer.OnAccess(space, addr, szw, true)
			}
			var bits uint64
			switch {
			case !isF:
				bits = intToBits(base, st.ii[a])
			case f32:
				bits = uint64(math.Float32bits(float32(st.ff[a])))
			default:
				bits = math.Float64bits(st.ff[a])
			}
			switch space {
			case ir.SpaceLocal:
				return sliceStore(r.local, off, size, bits)
			case ir.SpacePrivate:
				return sliceStore(st.priv, off, size, bits)
			default:
				return r.cfg.Mem.StoreBits(space, off, size, bits)
			}
		}
	}

	if in.Op == ir.StoreF {
		f32 := base == types.Float
		return func(r *groupRunner, st *wiState) error {
			addr := st.ii[b]
			space, _ := ir.DecodeAddr(addr)
			p := r.prof
			p.StoreInstrs++
			p.LSSlots128 += slots
			p.LSLanes += lanes
			if space == ir.SpacePrivate {
				p.PrivateAccesses++
			}
			p.BytesWritten[space&3] += bytes
			if r.cfg.Observer != nil {
				if r.ctxObs != nil {
					r.ctxObs.OnContext(r.item, r.phase, line)
				}
				r.cfg.Observer.OnAccess(space, addr, szw, true)
			}
			for l := 0; l < w; l++ {
				var bits uint64
				if f32 {
					bits = uint64(math.Float32bits(float32(st.ff[a+l])))
				} else {
					bits = math.Float64bits(st.ff[a+l])
				}
				if err := r.storeBits(addr+int64(l*size), size, bits); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return func(r *groupRunner, st *wiState) error {
		addr := st.ii[b]
		space, _ := ir.DecodeAddr(addr)
		p := r.prof
		p.StoreInstrs++
		p.LSSlots128 += slots
		p.LSLanes += lanes
		if space == ir.SpacePrivate {
			p.PrivateAccesses++
		}
		p.BytesWritten[space&3] += bytes
		if r.cfg.Observer != nil {
			if r.ctxObs != nil {
				r.ctxObs.OnContext(r.item, r.phase, line)
			}
			r.cfg.Observer.OnAccess(space, addr, szw, true)
		}
		for l := 0; l < w; l++ {
			if err := r.storeBits(addr+int64(l*size), size, intToBits(base, st.ii[a+l])); err != nil {
				return err
			}
		}
		return nil
	}
}

// --- pre-resolved scalar operation builders ----------------------------------

// wrapFn returns the modular-reduction function for the base,
// mirroring wrapInt.
func wrapFn(base types.Base) func(int64) int64 {
	switch base {
	case types.Bool:
		return func(v int64) int64 {
			if v != 0 {
				return 1
			}
			return 0
		}
	case types.Char:
		return func(v int64) int64 { return int64(int8(v)) }
	case types.UChar:
		return func(v int64) int64 { return int64(uint8(v)) }
	case types.Short:
		return func(v int64) int64 { return int64(int16(v)) }
	case types.UShort:
		return func(v int64) int64 { return int64(uint16(v)) }
	case types.Int:
		return func(v int64) int64 { return int64(int32(v)) }
	case types.UInt:
		return func(v int64) int64 { return int64(uint32(v)) }
	}
	return func(v int64) int64 { return v }
}

// intBinFn builds the scalar function of one integer binary op with
// the base's signedness, shift masking and wrapping pre-resolved,
// mirroring execIntBin.
func intBinFn(op ir.Op, base types.Base) func(int64, int64) int64 {
	signed := base.IsSigned()
	size := base.Size()
	wrap := wrapFn(base)
	mask := uint64(size*8 - 1)
	switch op {
	case ir.AddI:
		return func(x, y int64) int64 { return wrap(x + y) }
	case ir.SubI:
		return func(x, y int64) int64 { return wrap(x - y) }
	case ir.MulI:
		return func(x, y int64) int64 { return wrap(x * y) }
	case ir.DivI:
		if signed {
			return func(x, y int64) int64 {
				if y == 0 {
					return 0
				}
				return wrap(x / y)
			}
		}
		return func(x, y int64) int64 {
			if y == 0 {
				return 0
			}
			return wrap(int64(uint64(x) / uint64(y)))
		}
	case ir.RemI:
		if signed {
			return func(x, y int64) int64 {
				if y == 0 {
					return 0
				}
				return wrap(x % y)
			}
		}
		return func(x, y int64) int64 {
			if y == 0 {
				return 0
			}
			return wrap(int64(uint64(x) % uint64(y)))
		}
	case ir.AndI:
		return func(x, y int64) int64 { return wrap(x & y) }
	case ir.OrI:
		return func(x, y int64) int64 { return wrap(x | y) }
	case ir.XorI:
		return func(x, y int64) int64 { return wrap(x ^ y) }
	case ir.ShlI:
		return func(x, y int64) int64 { return wrap(x << (uint64(y) & mask)) }
	case ir.ShrI:
		if signed {
			return func(x, y int64) int64 { return wrap(x >> (uint64(y) & mask)) }
		}
		switch size {
		case 1:
			return func(x, y int64) int64 { return wrap(int64(uint8(x) >> (uint64(y) & mask))) }
		case 2:
			return func(x, y int64) int64 { return wrap(int64(uint16(x) >> (uint64(y) & mask))) }
		case 4:
			return func(x, y int64) int64 { return wrap(int64(uint32(x) >> (uint64(y) & mask))) }
		default:
			return func(x, y int64) int64 { return wrap(int64(uint64(x) >> (uint64(y) & mask))) }
		}
	}
	return func(x, y int64) int64 { return x }
}

// fltBinFn builds the scalar function of one float binary op with
// float32 rounding folded in, mirroring execFloatBin + roundBase.
func fltBinFn(op ir.Op, base types.Base) func(float64, float64) float64 {
	f32 := base == types.Float
	switch op {
	case ir.AddF:
		if f32 {
			return func(x, y float64) float64 { return float64(float32(x + y)) }
		}
		return func(x, y float64) float64 { return x + y }
	case ir.SubF:
		if f32 {
			return func(x, y float64) float64 { return float64(float32(x - y)) }
		}
		return func(x, y float64) float64 { return x - y }
	case ir.MulF:
		if f32 {
			return func(x, y float64) float64 { return float64(float32(x * y)) }
		}
		return func(x, y float64) float64 { return x * y }
	case ir.DivF:
		if f32 {
			return func(x, y float64) float64 { return float64(float32(x / y)) }
		}
		return func(x, y float64) float64 { return x / y }
	}
	return func(x, y float64) float64 { return x }
}

// intCmpFn mirrors execIntCmp's per-op comparison.
func intCmpFn(op ir.Op, base types.Base) func(int64, int64) bool {
	signed := base.IsSigned()
	switch op {
	case ir.CmpEqI:
		return func(x, y int64) bool { return x == y }
	case ir.CmpNeI:
		return func(x, y int64) bool { return x != y }
	case ir.CmpLtI:
		if signed {
			return func(x, y int64) bool { return x < y }
		}
		return func(x, y int64) bool { return uint64(x) < uint64(y) }
	case ir.CmpLeI:
		if signed {
			return func(x, y int64) bool { return x <= y }
		}
		return func(x, y int64) bool { return uint64(x) <= uint64(y) }
	}
	return func(x, y int64) bool { return false }
}

// fltCmpFn mirrors execFloatCmp's per-op comparison.
func fltCmpFn(op ir.Op) func(float64, float64) bool {
	switch op {
	case ir.CmpEqF:
		return func(x, y float64) bool { return x == y }
	case ir.CmpNeF:
		return func(x, y float64) bool { return x != y }
	case ir.CmpLtF:
		return func(x, y float64) bool { return x < y }
	case ir.CmpLeF:
		return func(x, y float64) bool { return x <= y }
	}
	return func(x, y float64) bool { return false }
}
