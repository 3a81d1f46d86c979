package vm_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"maligo/internal/bench"
	"maligo/internal/clc"
	"maligo/internal/clc/ir"
	"maligo/internal/clc/opt"
	"maligo/internal/vm"
)

// benchKernels returns every kernel of the nine benchmarks at both
// precisions.
func benchKernels(t testing.TB) []*ir.Kernel {
	t.Helper()
	var ks []*ir.Kernel
	for _, b := range bench.All() {
		for _, prec := range []bench.Precision{bench.F32, bench.F64} {
			p, err := clc.Compile(b.Name()+".cl", b.Source(), prec.BuildOptions())
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name(), prec, err)
			}
			ks = append(ks, programKernels(p)...)
		}
	}
	return ks
}

func programKernels(p *ir.Program) []*ir.Kernel {
	var ks []*ir.Kernel
	for _, n := range p.KernelNames() {
		ks = append(ks, p.Kernel(n))
	}
	return ks
}

// conformanceCorpus returns the nine benchmarks' kernels and the
// transform golden corpus, before and after the transform pipeline:
// the instruction forms the engines actually run.
func conformanceCorpus(t testing.TB) []*ir.Kernel {
	t.Helper()
	ks := benchKernels(t)
	files, err := filepath.Glob(filepath.Join("..", "clc", "opt", "testdata", "*.cl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no transform golden sources: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := clc.Compile(filepath.Base(f), string(src), "")
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out, _ := opt.Optimize(p)
		ks = append(ks, programKernels(p)...)
		ks = append(ks, programKernels(out)...)
	}
	return ks
}

// TestDefUseConformance checks ir.Uses and ir.Def against the
// interpreter for every instruction of the conformance corpus. The
// compiled engine's tier-2 liveness (and the dataflow analyses) rely on
// two properties:
//
//   - Uses covers every read: re-running the instruction with every
//     register outside Uses poisoned leaves the values it writes, its
//     memory effects and its error unchanged;
//   - Def covers every write: every register the instruction changes
//     lies inside Def.
func TestDefUseConformance(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	forms := map[string]bool{}
	checked := 0
	for _, k := range conformanceCorpus(t) {
		for pc, in := range k.Code {
			switch in.Op {
			case ir.Jmp, ir.JmpIf, ir.JmpIfZ:
				in.Imm = 1
			}
			forms[fmt.Sprintf("%v/%d/%v/%v/%d", in.Op, in.Width, in.Base, in.Base2, in.Imm)] = true
			for trial := 0; trial < 2; trial++ {
				checkDefUse(t, rnd, k, pc, in)
			}
			checked++
		}
	}
	t.Logf("%d instructions, %d distinct forms", checked, len(forms))
}

func checkDefUse(t *testing.T, rnd *rand.Rand, k *ir.Kernel, pc int, in ir.Instr) {
	t.Helper()
	const memBytes, addrOff = 512, 128
	uses := [2][]bool{make([]bool, k.NumI), make([]bool, k.NumF)}
	ir.Uses(&in, func(r ir.RegRef) {
		for s := r.Slot; s < r.Slot+r.Width; s++ {
			uses[r.Bank][s] = true
		}
	})
	def, hasDef := ir.Def(&in)
	inDef := func(bank int, s int) bool {
		return hasDef && def.Overlaps(ir.RegRef{Bank: bank, Slot: int32(s), Width: 1})
	}

	randI := func() int64 {
		if rnd.Intn(2) == 0 {
			return rnd.Int63n(64) - 32
		}
		return int64(rnd.Uint64())
	}
	ii0, ff0 := make([]int64, k.NumI), make([]float64, k.NumF)
	for s := range ii0 {
		ii0[s] = randI()
	}
	for s := range ff0 {
		ff0[s] = rnd.NormFloat64() * 100
	}
	if in.Op.IsMemory() {
		ii0[in.B] = ir.EncodeAddr(ir.SpaceGlobal, addrOff)
	}
	memInit := make([]byte, memBytes)
	rnd.Read(memInit)

	// The poisoned start state differs from ii0/ff0 in every register
	// outside Uses.
	ii1, ff1 := append([]int64(nil), ii0...), append([]float64(nil), ff0...)
	for s := range ii1 {
		if !uses[ir.BankI][s] {
			ii1[s] = ^ii0[s]
		}
	}
	for s := range ff1 {
		if !uses[ir.BankF][s] {
			ff1[s] = -ff0[s] - 1
		}
	}

	exec := func(ii []int64, ff []float64) ([]int64, []float64, []byte, error) {
		ii, ff = append([]int64(nil), ii...), append([]float64(nil), ff...)
		mem := newFlatMem(memBytes, nil)
		copy(mem.global, memInit)
		err := vm.ExecInstr(in, ii, ff, mem)
		return ii, ff, mem.global, err
	}
	iiA, ffA, memA, errA := exec(ii0, ff0)
	iiB, ffB, memB, errB := exec(ii1, ff1)
	where := fmt.Sprintf("%s pc %d: %v", k.Name, pc, in)

	if fmt.Sprint(errA) != fmt.Sprint(errB) {
		t.Fatalf("%s: a register outside Uses changes the error: %v vs %v", where, errA, errB)
	}
	if !bytes.Equal(memA, memB) {
		t.Fatalf("%s: a register outside Uses changes the memory written", where)
	}
	// Every register either run changed must lie in Def, and where
	// either run wrote, both must have written the same value.
	for s := range iiA {
		changed := iiA[s] != ii0[s] || iiB[s] != ii1[s]
		if changed && !inDef(ir.BankI, s) {
			t.Fatalf("%s: writes int register %d outside Def %+v", where, s, def)
		}
		if changed && iiA[s] != iiB[s] {
			t.Fatalf("%s: int register %d depends on a register outside Uses (%d vs %d)", where, s, iiA[s], iiB[s])
		}
	}
	for s := range ffA {
		a, b := math.Float64bits(ffA[s]), math.Float64bits(ffB[s])
		changed := a != math.Float64bits(ff0[s]) || b != math.Float64bits(ff1[s])
		if changed && !inDef(ir.BankF, s) {
			t.Fatalf("%s: writes float register %d outside Def %+v", where, s, def)
		}
		if changed && a != b {
			t.Fatalf("%s: float register %d depends on a register outside Uses (%v vs %v)", where, s, ffA[s], ffB[s])
		}
	}
}
