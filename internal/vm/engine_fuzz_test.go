package vm_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"maligo/internal/clc"
	"maligo/internal/clc/ir"
	"maligo/internal/vm"
)

// fuzzKernelSource builds the generated kernel for one fuzz input. The
// seed's low bits pick one of three templates: the original
// expression-tree shape, a divergent-control shape (data-dependent
// branches so lanes of one batch take different paths and must
// re-merge), and a barrier-in-loop shape (barriers inside a
// data-dependent loop so the lock-step phase protocol is exercised
// against the serial one). Shapes 1 and 2 are the mandatory seeds of
// the SIMT bug-class hunt: masked-lane side effects and barrier
// reconvergence bugs only show up under divergence. Seeds whose top
// nibble is 0xA pick one of two shapes aimed at the compiled engine's
// tier-2 lowering instead: loop-carried copies, a register read before
// any write on some lanes, immediates reused across blocks, vector ops
// reading coalesced registers, and values carried across barriers.
func fuzzKernelSource(seed uint64, expr string) string {
	if seed>>60 == 0xA {
		if (seed>>1)%2 == 0 {
			return fmt.Sprintf(`__kernel void f(__global int* out, __global const int* in,
			                                 const int a, const int b, const int idx) {
				int gid = get_global_id(0);
				int c = in[(gid + idx) & 3];
				int u;
				if ((gid ^ idx) & 1) { u = c * 7 + a; }
				int p = a, q = b + 7;
				for (int i = 0; i < (idx & 511); i++) {
					int t = p;
					p = q + i * 7;
					q = t ^ (c + 7);
				}
				int4 v = (int4)(p, q, u, gid);
				int4 w = v * (int4)(7) + (int4)(p + q);
				out[gid] = (%s) + u + w.x + w.y + w.z + w.w;
			}`, expr)
		}
		return fmt.Sprintf(`__kernel void f(__global int* out, __global const int* in,
		                                 const int a, const int b, const int idx) {
			__local int tile[4];
			int gid = get_global_id(0);
			int lid = get_local_id(0);
			int c = in[(gid + idx) & 3];
			int keep = c * 5 + a;
			int s;
			if (lid & 1) { s = b; }
			for (int i = 0; i < ((idx & 15) + 1); i++) {
				tile[lid] = keep + i;
				barrier(CLK_LOCAL_MEM_FENCE);
				int t = s;
				s = keep + tile[(lid + 1) & 3] * 5;
				keep = t ^ c;
				barrier(CLK_LOCAL_MEM_FENCE);
			}
			out[gid] = (%s) + s + keep;
		}`, expr)
	}
	switch (seed >> 1) % 3 {
	case 1: // divergent control: branches + early loop exit keyed on gid
		return fmt.Sprintf(`__kernel void f(__global int* out, __global const int* in,
		                                 const int a, const int b, const int idx) {
			int gid = get_global_id(0);
			int c = in[(gid + idx) & 3];
			int tmp[4];
			tmp[gid & 3] = c ^ a;
			int s = 0;
			if ((gid ^ idx) & 1) {
				s = a - gid;
				for (int i = 0; i < ((idx & 63) + gid); i++) {
					s += tmp[(i + gid) & 3] ^ i;
					if (s > b) { s -= b; }
				}
			} else {
				for (int i = 0; i < (idx & 255); i++) {
					s += tmp[i & 3] + i;
				}
			}
			out[gid] = (%s) + s + tmp[idx & 7];
		}`, expr)
	case 2: // barrier in data-dependent loop, divergent work between phases
		return fmt.Sprintf(`__kernel void f(__global int* out, __global const int* in,
		                                 const int a, const int b, const int idx) {
			__local int tile[4];
			int gid = get_global_id(0);
			int lid = get_local_id(0);
			int c = in[(gid + idx) & 3];
			int tmp[4];
			tmp[gid & 3] = c ^ a;
			int s = 0;
			for (int i = 0; i < ((idx & 15) + 1); i++) {
				tile[lid] = s + c + i;
				barrier(CLK_LOCAL_MEM_FENCE);
				if ((lid + i) & 1) {
					s += tile[3 - lid] * 3;
				} else {
					s ^= tile[(lid + 1) & 3] + b;
				}
				barrier(CLK_LOCAL_MEM_FENCE);
			}
			out[gid] = (%s) + s + tmp[idx & 7];
		}`, expr)
	}
	return fmt.Sprintf(`__kernel void f(__global int* out, __global const int* in,
	                                 const int a, const int b, const int idx) {
		int gid = get_global_id(0);
		int c = in[(gid + idx) & 3];
		int tmp[4];
		tmp[gid & 3] = c ^ a;
		int s = 0;
		for (int i = 0; i < (idx & 255); i++) {
			s += tmp[i & 3] + i;
		}
		out[gid] = (%s) + s + tmp[idx & 7];
	}`, expr)
}

// FuzzEngineEquivalence is the engine cross-check: it generates a
// random kernel (expression tree over scalars plus global loads, a
// private scratch array, data-dependent control flow and optionally
// barriers in loops), runs the same work-group under the reference
// interpreter, the compiled fast path and the lock-step lane engine,
// and requires all three to agree on every outcome — the final global
// memory image and execution profile on success, the fault on failure.
// The loop bounds and the scratch index derive from fuzz inputs, so
// the corpus naturally explores step-limit exhaustion, divergence
// reconvergence and private out-of-bounds faults as well as clean
// runs.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(uint64(1), int32(0), int32(0), int32(0))
	f.Add(uint64(42), int32(7), int32(-3), int32(5))
	f.Add(uint64(0x9E3779B9), int32(-100), int32(100), int32(63))
	f.Add(uint64(12345), int32(1<<30), int32(-(1 << 30)), int32(1023))
	f.Add(uint64(777), int32(-1), int32(-1), int32(-1))
	// Dependency-chain shapes: these idx values drive the generated
	// kernel's loop-carried accumulation to its extremes — the longest
	// chain (idx&255 == 255), a chain ending in the private
	// out-of-bounds fault (idx&7 > 3), and chains whose loads alias the
	// same in[] slot — the data-flow analogues of deep and diamond
	// command DAGs in the queue scheduler.
	f.Add(uint64(0xDEADBEEF), int32(3), int32(9), int32(255))                     // longest loop chain
	f.Add(uint64(0xCAFEBABE), int32(-7), int32(11), int32(0xFF07))                // long chain into tmp[7] fault
	f.Add(uint64(0x0F0F0F0F), int32(1), int32(1), int32(4))                       // chain ending out of bounds
	f.Add(uint64(0xFFFFFFFFFFFFFFFF), int32(1<<31-1), int32(1<<31-1), int32(128)) // overflow mid-chain
	f.Add(uint64(2), int32(0), int32(-(1 << 31)), int32(131))                     // aliased loads, odd chain length
	f.Add(uint64(0x123456789ABCDEF), int32(85), int32(-86), int32(252))           // near-max chain, sign flips
	// Mandatory SIMT seeds: template 1 (divergent control — per-lane
	// branch and loop trip counts) and template 2 (barrier in a
	// data-dependent loop) at characteristic corners, including
	// step-limit exhaustion inside the divergent region and the
	// private out-of-bounds fault behind a divergent branch.
	f.Add(uint64(3), int32(5), int32(2), int32(63))       // divergent control, both arms taken
	f.Add(uint64(3), int32(-9), int32(0), int32(0xFF05))  // divergent control into tmp[5] fault
	f.Add(uint64(9), int32(1), int32(7), int32(255))      // divergent control, near step limit
	f.Add(uint64(5), int32(11), int32(-4), int32(15))     // barrier-in-loop, max phases
	f.Add(uint64(5), int32(0), int32(0), int32(0))        // barrier-in-loop, single phase
	f.Add(uint64(11), int32(-1), int32(1), int32(0xFF04)) // barrier-in-loop into tmp[4] fault
	// Tier-2 seeds (top nibble 0xA): loop-carried copies with a read
	// before any write on even lanes, from no iterations to a loop that
	// trips ErrStepLimit mid-run; then values carried across barriers.
	f.Add(uint64(0xA000000000000001), int32(3), int32(-8), int32(0))  // no loop: u read unwritten
	f.Add(uint64(0xA000000000000001), int32(-5), int32(9), int32(37)) // loop-carried copies
	f.Add(uint64(0xA000000000000101), int32(1), int32(2), int32(511)) // ErrStepLimit mid-run
	f.Add(uint64(0xA000000000000003), int32(4), int32(-1), int32(15)) // live across barriers
	f.Add(uint64(0xA000000000000103), int32(0), int32(0), int32(0))   // one phase, s read unwritten

	f.Fuzz(func(t *testing.T, seed uint64, a, b, idx int32) {
		g := &exprGen{seed: seed | 1}
		g.gen(3)
		expr := g.sb.String()
		src := fuzzKernelSource(seed, expr)
		prog, err := clc.Compile("fuzzeq.cl", src, "")
		if err != nil {
			t.Fatalf("generated kernel failed to compile: %v\nexpr: %s", err, expr)
		}
		run := func(eng vm.Engine) ([]byte, vm.Profile, error) {
			mem := newFlatMem(64, nil)
			for i := 0; i < 4; i++ {
				mem.putI32(16+4*i, int32(seed>>(8*uint(i)))) // in[]
			}
			cfg := &vm.GroupConfig{
				Kernel:     prog.Kernel("f"),
				WorkDim:    1,
				LocalSize:  [3]int{4, 1, 1},
				GlobalSize: [3]int{4, 1, 1},
				Args: []vm.ArgValue{
					{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
					{Bits: ir.EncodeAddr(ir.SpaceGlobal, 16)},
					{Bits: int64(a)}, {Bits: int64(b)}, {Bits: int64(idx)},
				},
				Mem:       mem,
				StepLimit: 4096,
				Engine:    eng,
			}
			var prof vm.Profile
			err := vm.RunGroup(cfg, &prof)
			return mem.global, prof, err
		}

		refMem, refProf, refErr := run(vm.EngineInterp)
		for _, eng := range []vm.Engine{vm.EngineCompiled, vm.EngineLanes} {
			gotMem, gotProf, gotErr := run(eng)
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("engines disagree on failure:\n interp: %v\n %v: %v\nexpr: %s", refErr, eng, gotErr, expr)
			}
			if refErr != nil {
				// On failure callers discard memory and profile; the
				// engines must agree on the fault itself.
				if refErr.Error() != gotErr.Error() {
					t.Fatalf("fault differs:\n interp: %v\n %v: %v\nexpr: %s", refErr, eng, gotErr, expr)
				}
				continue
			}
			if !bytes.Equal(refMem, gotMem) {
				t.Fatalf("global memory differs\n interp: %v\n %v: %v\nexpr: %s", refMem, eng, gotMem, expr)
			}
			if !reflect.DeepEqual(refProf, gotProf) {
				t.Fatalf("profiles differ\n interp: %+v\n %v: %+v\nexpr: %s", refProf, eng, gotProf, expr)
			}
		}
	})
}
