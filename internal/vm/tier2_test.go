package vm

import (
	"testing"

	"maligo/internal/clc"
	"maligo/internal/clc/ir"
)

// blockPIns returns the pre-decoded instructions the compiled program
// executes for the pure run code[start:end], which a closing jump at
// end follows, after the tier-2 rewrites and multiply-add fusion.
func blockPIns(t *testing.T, k *ir.Kernel, start, end int) []pIns {
	t.Helper()
	isStart := blockStarts(k.Code)
	t2 := newTier2(k, isStart)
	var ps []pIns
	var srcs []*ir.Instr
	for i := start; i < end; i++ {
		p, _, ok := genPure(&k.Code[i])
		if !ok {
			if p, ok = genInline(&k.Code[i]); !ok {
				t.Fatalf("instruction %d (%v) is not in a pure run", i, k.Code[i])
			}
		}
		ps = append(ps, p)
		srcs = append(srcs, &k.Code[i])
	}
	live := append(bitset(nil), t2.liveOut[start]...)
	t2.transferIR(live, &k.Code[end]) // the closing jump
	return fuseRun(t2.rewriteRun(ps, srcs, live))
}

// TestTier2VecopLoopBody pins what tier 2 removes from the scalar
// vecop loop body: of its 20 pure and memory instructions (17 pIns
// after multiply-add fusion) only the three address computations, the
// two loads, the add, the store and the induction increment remain —
// the copies, the repeated immediates and the dead index conversions
// are gone.
func TestTier2VecopLoopBody(t *testing.T) {
	prog, err := clc.Compile("vecop.cl", `
__kernel void vecop_serial(__global const float* a, __global const float* b,
                           __global float* c, const uint n) {
    for (uint i = 0; i < n; i++) {
        c[i] = a[i] + b[i];
    }
}`, "")
	if err != nil {
		t.Fatal(err)
	}
	k := prog.Kernel("vecop_serial")
	// The loop body is the block after the header's jmpifz and before
	// the back edge.
	start, end := -1, -1
	for i, in := range k.Code {
		if in.Op == ir.JmpIfZ && start < 0 {
			start = i + 1
		}
		if in.Op == ir.Jmp {
			end = i
		}
	}
	got := blockPIns(t, k, start, end)
	want := []pKind{pMaddI64, pMaddI64, pLoadF32, pMaddI64, pLoadF32, pAddF32, pStoreF32, pAddU32}
	if len(got) != len(want) {
		t.Fatalf("loop body runs %d pIns, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].kind != want[i] {
			t.Errorf("pIns %d: kind %d, want %d", i, got[i].kind, want[i])
		}
	}
}
