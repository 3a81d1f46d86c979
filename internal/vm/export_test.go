package vm

import "maligo/internal/clc/ir"

// ExecInstr runs one IR instruction on the reference interpreter, as
// the only instruction of a one-work-item kernel, against the given
// register files and memory. Jumps must target 1 (the closing Ret).
func ExecInstr(in ir.Instr, ii []int64, ff []float64, mem GlobalMemory) error {
	k := &ir.Kernel{Name: "instr", Code: []ir.Instr{in, {Op: ir.Ret}}, NumI: len(ii), NumF: len(ff)}
	cfg := &GroupConfig{Kernel: k, WorkDim: 1, LocalSize: [3]int{1, 1, 1}, GlobalSize: [3]int{1, 1, 1}, Mem: mem}
	r := &groupRunner{cfg: cfg, k: k, prof: &Profile{}, limit: defaultStepLimit}
	st := &wiState{ii: ii, ff: ff}
	r.cur = st
	return r.run(st, false)
}
