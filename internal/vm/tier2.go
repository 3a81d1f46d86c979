package vm

import (
	"math"

	"maligo/internal/clc/ir"
)

// This file is the compiled engine's tier-2 lowering. It changes what
// the host executes inside a block's pure runs, never what the
// simulator counts: the IR stays unoptimized three-address code because
// its instruction stream is the simulated observable (every Profile
// count, step, pc and fault point comes from the unmodified code), but
// the copies and immediates that three-address form needs are host
// work the register file can absorb. One backward liveness pass per
// kernel feeds four rewrites of each pure run:
//
//   - constant slots: an ImmI/ImmF becomes a copy from a read-only
//     slot appended to the register file (filled when a work-item's
//     state is reset), so copy propagation can forward it;
//   - coalescing: "op t ← …; mov x ← t" with t dead after the move
//     becomes "op x ← …";
//   - copy propagation: moves (and constant slots) are forwarded into
//     the operands of the specialized kinds;
//   - dead-write elimination: pure writes no later instruction reads
//     are dropped.
//
// Register contents are not observable — only memory, observer
// callbacks, profiles and faults are, and every caller discards all VM
// state when a group fails — so a rewrite is sound when every register
// a later instruction reads holds the value the interpreter would have
// put there. Liveness takes reads from ir.Uses (an over-approximation,
// which only keeps more writes alive) and kills only from exact defs:
// CallB and AtomicOp report an upper bound through ir.Def, so they kill
// nothing.

// bitset is a fixed-size set of flat register slots: integer slot s is
// bit s, float slot s is bit numI+s. Constant slots are never tracked.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clr(i int)      { b[i>>6] &^= 1 << (uint(i) & 63) }

// tier2 holds one kernel's liveness and constant pools while it is
// compiled.
type tier2 struct {
	numI, numF int

	// liveOut is the set of slots live at the end of each block,
	// indexed by the block's first instruction.
	liveOut []bitset

	constI   []int64
	constF   []float64
	constIdx map[int64]int32
	constFdx map[uint64]int32

	// Copy-propagation state, indexed by flat slot. A copy entry x→src
	// is valid while cpEp[x] is the current run's epoch and src has not
	// been written since (ver[src] == cpVer[x]).
	ver   []uint32
	cpSrc []int32
	cpVer []uint32
	cpEp  []uint32
	epoch uint32

	// Reused buffers: live sets for rewriteRun and compileBlock, and
	// rewriteRun's per-instruction deleted / dead-source flags.
	liveBuf  bitset
	blockBuf bitset
	del      []bool
	dead     []bool
}

// newTier2 runs the kernel's block-level liveness: per-block
// upward-exposed uses and exact defs, then the backward dataflow
// fixpoint over the block graph (successors: the jump target, the
// fallthrough, the resume point after a barrier; none after Ret).
func newTier2(k *ir.Kernel, isStart []bool) *tier2 {
	code := k.Code
	n := len(code)
	t := &tier2{
		numI:     k.NumI,
		numF:     k.NumF,
		liveOut:  make([]bitset, n),
		constIdx: map[int64]int32{},
		constFdx: map[uint64]int32{},
	}
	slots := t.numI + t.numF
	t.ver = make([]uint32, slots)
	t.cpSrc = make([]int32, slots)
	t.cpVer = make([]uint32, slots)
	t.cpEp = make([]uint32, slots)
	t.liveBuf = newBitset(slots)
	t.blockBuf = newBitset(slots)

	type block struct {
		start, end int
		use, def   bitset
		in, out    bitset
		succ       [2]int
	}
	var blocks []*block
	at := make([]*block, n)
	words := (slots + 63) / 64
	for start := 0; start < n; {
		end := start + 1
		for end < n && !isStart[end] {
			end++
		}
		sets := make(bitset, 4*words)
		b := &block{start: start, end: end, succ: [2]int{-1, -1},
			use: sets[:words:words], def: sets[words : 2*words : 2*words],
			in: sets[2*words : 3*words : 3*words], out: sets[3*words:]}
		for i := end - 1; i >= start; i-- {
			t.transferIR(b.use, &code[i])
			t.defsIR(&code[i], func(s int) { b.def.set(s) })
		}
		last := &code[end-1]
		switch last.Op {
		case ir.Jmp:
			b.succ[0] = int(last.Imm)
		case ir.JmpIf, ir.JmpIfZ:
			b.succ[0], b.succ[1] = int(last.Imm), end
		case ir.Ret:
		default:
			b.succ[0] = end
		}
		blocks = append(blocks, b)
		at[start] = b
		start = end
	}
	for changed := true; changed; {
		changed = false
		for bi := len(blocks) - 1; bi >= 0; bi-- {
			b := blocks[bi]
			for _, s := range b.succ {
				// A target outside the program (or past its end) is a
				// dispatch fault, not a successor.
				if s >= 0 && s < n {
					sb := at[s]
					for w := range b.out {
						b.out[w] |= sb.in[w]
					}
				}
			}
			for w := range b.in {
				v := b.use[w] | b.out[w]&^b.def[w]
				if v != b.in[w] {
					b.in[w] = v
					changed = true
				}
			}
		}
	}
	for _, b := range blocks {
		t.liveOut[b.start] = b.out
	}
	return t
}

// slot maps a bank-local register to its flat slot, or -1 for a slot
// the liveness does not track (a constant slot).
func (t *tier2) slot(bank int, r int32) int {
	if bank == ir.BankF {
		if r >= 0 && int(r) < t.numF {
			return t.numI + int(r)
		}
		return -1
	}
	if r >= 0 && int(r) < t.numI {
		return int(r)
	}
	return -1
}

// refSlots calls fn for every tracked slot of a register range.
func (t *tier2) refSlots(ref ir.RegRef, fn func(int)) {
	for s := ref.Slot; s < ref.Slot+ref.Width; s++ {
		if f := t.slot(ref.Bank, s); f >= 0 {
			fn(f)
		}
	}
}

// defsIR calls fn for each slot an IR instruction certainly writes.
func (t *tier2) defsIR(in *ir.Instr, fn func(int)) {
	if in.Op == ir.CallB || in.Op == ir.AtomicOp {
		return
	}
	if d, ok := ir.Def(in); ok {
		t.refSlots(d, fn)
	}
}

// transferIR steps live backward over one IR instruction.
func (t *tier2) transferIR(live bitset, in *ir.Instr) {
	t.defsIR(in, live.clr)
	ir.Uses(in, func(ref ir.RegRef) { t.refSlots(ref, live.set) })
}

// Operand fields of a pIns, and the scalar register signature of each
// specialized kind: the operand it writes and the ones it reads.
const (
	fNone uint8 = iota
	fA
	fB
	fC
	fD
)

type opnd struct{ field, bank uint8 }

type shape struct {
	dst  opnd
	srcs [3]opnd
}

func kindShape(k pKind) shape {
	const I, F = uint8(ir.BankI), uint8(ir.BankF)
	var (
		aI, aF = opnd{fA, I}, opnd{fA, F}
		bI, bF = opnd{fB, I}, opnd{fB, F}
		cI, cF = opnd{fC, I}, opnd{fC, F}
		dI, dF = opnd{fD, I}, opnd{fD, F}
	)
	switch {
	case k == pMovI || k >= pCvtII32 && k <= pCvtIIU32 || k >= pGlobalID && k <= pGlobalOffset:
		return shape{aI, [3]opnd{bI}}
	case k == pMovF || k == pNegF32 || k == pNegF64 || k == pCvtFF32:
		return shape{aF, [3]opnd{bF}}
	case k == pImmI || k == pWorkDim:
		return shape{dst: aI}
	case k == pImmF:
		return shape{dst: aF}
	case k >= pAddI64 && k <= pShrS32 || k >= pCmpEqI && k <= pCmpLeU:
		return shape{aI, [3]opnd{bI, cI}}
	case k >= pAddF32 && k <= pDivF64:
		return shape{aF, [3]opnd{bF, cF}}
	case k >= pCmpEqF && k <= pCmpLeF:
		return shape{aI, [3]opnd{bF, cF}}
	case k == pSelI:
		return shape{aI, [3]opnd{bI, cI, dI}}
	case k == pSelF:
		return shape{aF, [3]opnd{bI, cF, dF}}
	case k >= pCvtSF64 && k <= pCvtUF32:
		return shape{aF, [3]opnd{bI}}
	case k == pLoadF32 || k == pLoadF64:
		return shape{aF, [3]opnd{bI}}
	case k == pLoadInt:
		return shape{aI, [3]opnd{bI}}
	case k == pStoreF32 || k == pStoreF64:
		return shape{srcs: [3]opnd{aF, bI}}
	case k == pStoreInt:
		return shape{srcs: [3]opnd{aI, bI}}
	}
	panic("vm: no register shape for pure kind") // pFn and the fused kinds never reach the pass
}

func (in *pIns) reg(f uint8) *int32 {
	switch f {
	case fA:
		return &in.a
	case fB:
		return &in.b
	case fC:
		return &in.c
	}
	return &in.d
}

func isInlineMem(k pKind) bool { return k >= pLoadF32 }

func isMove(k pKind) bool { return k == pMovI || k == pMovF }

// access calls fn for every slot the instruction reads and
// (write=true) every slot it writes, as flat slots; -1 stands for an
// untracked one (a constant slot, or a register outside the banks,
// which no rewrite may touch). Specialized kinds report their current
// operands; a pFn closure reports its IR instruction's.
func (t *tier2) access(in *pIns, src *ir.Instr, fn func(s int, write bool)) {
	if in.kind == pFn {
		if in, ok := ir.Def(src); ok {
			for r := in.Slot; r < in.Slot+in.Width; r++ {
				fn(t.slot(in.Bank, r), true)
			}
		}
		ir.Uses(src, func(ref ir.RegRef) { t.refSlots(ref, func(s int) { fn(s, false) }) })
		return
	}
	sh := kindShape(in.kind)
	if sh.dst.field != fNone {
		fn(t.slot(int(sh.dst.bank), *in.reg(sh.dst.field)), true)
	}
	for _, o := range sh.srcs {
		if o.field == fNone {
			break
		}
		fn(t.slot(int(o.bank), *in.reg(o.field)), false)
	}
}

// transfer steps live backward over one pre-decoded instruction.
func (t *tier2) transfer(live bitset, in *pIns, src *ir.Instr) {
	t.access(in, src, func(s int, write bool) {
		if write && s >= 0 {
			live.clr(s)
		}
	})
	t.access(in, src, func(s int, write bool) {
		if !write && s >= 0 {
			live.set(s)
		}
	})
}

// writesLive reports whether a pure instruction writes a slot in live
// (or one the liveness does not track). An instruction that writes
// nothing, a nop, is dead.
func (t *tier2) writesLive(live bitset, in *pIns, src *ir.Instr) bool {
	w := false
	t.access(in, src, func(s int, write bool) {
		w = w || write && (s < 0 || live.has(s))
	})
	return w
}

// constSlot returns the register of the read-only slot holding an
// integer immediate, appending it on first use.
func (t *tier2) constSlot(v int64) int32 {
	if r, ok := t.constIdx[v]; ok {
		return r
	}
	r := int32(t.numI + len(t.constI))
	t.constI = append(t.constI, v)
	t.constIdx[v] = r
	return r
}

// constSlotF is constSlot for float immediates, keyed by bit pattern
// so -0 and NaN payloads keep their identity.
func (t *tier2) constSlotF(v float64) int32 {
	bits := math.Float64bits(v)
	if r, ok := t.constFdx[bits]; ok {
		return r
	}
	r := int32(t.numF + len(t.constF))
	t.constF = append(t.constF, v)
	t.constFdx[bits] = r
	return r
}

// coalesceWindow bounds how far back coalescing looks for the
// definition a move copies, keeping the pass linear in the run length.
const coalesceWindow = 8

// rewriteRun applies the tier-2 rewrites to one pure run. ps holds the
// run's pre-decoded instructions (inline memory accesses included, with
// their pre counts), srcs their IR instructions and liveOut the slots
// live after the run. The result executes the same memory accesses in
// the same order and leaves every slot in liveOut, and every slot a
// later read can observe, with the interpreter's value.
func (t *tier2) rewriteRun(ps []pIns, srcs []*ir.Instr, liveOut bitset) []pIns {
	n := len(ps)
	t.del, t.dead = grown(t.del, n), grown(t.dead, n)
	del, dead := t.del, t.dead
	clear(del)
	clear(dead)

	for i := range ps {
		switch ps[i].kind {
		case pImmI:
			ps[i] = pIns{kind: pMovI, a: ps[i].a, b: t.constSlot(ps[i].imm)}
		case pImmF:
			ps[i] = pIns{kind: pMovF, a: ps[i].a, b: t.constSlotF(ps[i].fimm)}
		}
	}

	// Which moves copy a source that is dead right after them.
	live := t.liveBuf
	copy(live, liveOut)
	for j := n - 1; j >= 0; j-- {
		if isMove(ps[j].kind) {
			s := t.slot(bankOfMove(ps[j].kind), ps[j].b)
			dead[j] = s >= 0 && !live.has(s)
		}
		t.transfer(live, &ps[j], srcs[j])
	}

	// Coalescing: retarget the definition of a dead move source to the
	// move's destination when nothing in between touches either.
	for j := range ps {
		if !dead[j] || ps[j].a == ps[j].b {
			continue
		}
		bank := bankOfMove(ps[j].kind)
		x, src := t.slot(bank, ps[j].a), t.slot(bank, ps[j].b)
		if x < 0 {
			continue
		}
		for i := j - 1; i >= 0 && i >= j-coalesceWindow; i-- {
			if del[i] {
				continue
			}
			in := &ps[i]
			if in.kind != pFn {
				if sh := kindShape(in.kind); sh.dst.field != fNone &&
					t.slot(int(sh.dst.bank), *in.reg(sh.dst.field)) == src {
					*in.reg(sh.dst.field) = ps[j].a
					del[j] = true
					break
				}
			}
			blocked := false
			t.access(in, srcs[i], func(s int, write bool) {
				blocked = blocked || s == x || s == src || s < 0 && write
			})
			if blocked {
				break
			}
		}
	}

	// Copy propagation, forward.
	t.epoch++
	for i := range ps {
		if del[i] {
			continue
		}
		in := &ps[i]
		if in.kind == pFn {
			t.access(in, srcs[i], func(s int, write bool) {
				if write && s >= 0 {
					t.written(s)
				}
			})
			continue
		}
		sh := kindShape(in.kind)
		for _, o := range sh.srcs {
			if o.field == fNone {
				break
			}
			p := in.reg(o.field)
			if s := t.slot(int(o.bank), *p); s >= 0 && t.cpEp[s] == t.epoch {
				src := t.cpSrc[s]
				if ss := t.slot(int(o.bank), src); ss < 0 || t.ver[ss] == t.cpVer[s] {
					*p = src
				}
			}
		}
		if sh.dst.field == fNone {
			continue
		}
		d := t.slot(int(sh.dst.bank), *in.reg(sh.dst.field))
		if d < 0 {
			continue
		}
		t.written(d)
		if isMove(in.kind) && in.a != in.b {
			t.cpSrc[d], t.cpEp[d] = in.b, t.epoch
			if ss := t.slot(int(sh.dst.bank), in.b); ss >= 0 {
				t.cpVer[d] = t.ver[ss]
			}
		}
	}

	// Dead-write elimination, backward.
	copy(live, liveOut)
	for i := n - 1; i >= 0; i-- {
		if del[i] {
			continue
		}
		in := &ps[i]
		if !isInlineMem(in.kind) && (isMove(in.kind) && in.a == in.b || !t.writesLive(live, in, srcs[i])) {
			del[i] = true
			continue
		}
		t.transfer(live, in, srcs[i])
	}

	out := ps[:0]
	for i := range ps {
		if !del[i] {
			out = append(out, ps[i])
		}
	}
	return out
}

// written records a write of flat slot s for copy propagation: copies
// of s and the copy s itself held are no longer valid.
func (t *tier2) written(s int) {
	t.ver[s]++
	t.cpEp[s] = 0
}

func bankOfMove(k pKind) int {
	if k == pMovF {
		return ir.BankF
	}
	return ir.BankI
}
