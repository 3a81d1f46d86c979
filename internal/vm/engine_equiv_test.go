package vm_test

import (
	"fmt"
	"testing"

	"maligo/internal/clc/ir"
	"maligo/internal/vm"
)

// tier2Cases are kernels shaped after what the compiled engine's tier-2
// lowering rewrites: copies the IR keeps for loop-carried variables, a
// register read before any write, values live across barriers, an
// immediate reused across blocks, and vector closures reading a
// register a coalesced definition now writes directly.
var tier2Cases = []struct {
	name, src string
	local     int
}{
	{"loop_carried", `__kernel void k(__global int* out, __global float* fout, const int n) {
		int gid = get_global_id(0);
		int a = gid, b = 1, c = 0;
		float x = 1.0f, y = 0.5f;
		for (int i = 0; i < n; i++) {
			int t = a;
			a = b;
			b = t;
			a = a + i;
			c = c ^ (a * 3 + b);
			float u = x;
			x = y;
			y = u;
			y = y + x * 0.25f;
		}
		out[gid] = a + b * 7 + c;
		fout[gid] = x + y;
	}`, 4},
	{"read_before_write", `__kernel void k(__global int* out, __global float* fout, const int n) {
		int gid = get_global_id(0);
		int u;
		float f;
		for (int i = 0; i < n; i++) {
			if (i == n - 1) { u = i; f = (float)i; }
		}
		out[gid] = u + gid;
		fout[gid] = f;
	}`, 4},
	{"live_across_barrier", `__kernel void k(__global int* out, __global float* fout, const int n) {
		__local int tile[8];
		int lid = get_local_id(0);
		int v = lid * 5 + n;
		float w = (float)lid * 0.5f;
		int acc = 0;
		for (int i = 0; i < n; i++) {
			tile[lid] = v + i;
			barrier(CLK_LOCAL_MEM_FENCE);
			acc += tile[(lid + 1) & 7];
			barrier(CLK_LOCAL_MEM_FENCE);
		}
		out[lid] = acc + v;
		fout[lid] = w * 4.0f;
	}`, 8},
	{"const_across_blocks", `__kernel void k(__global int* out, __global float* fout, const int n) {
		int gid = get_global_id(0);
		int s = 0;
		float fs = 0.0f;
		if (gid & 1) { s = gid * 12345; fs = 2.5f * (float)gid; }
		else { s = gid + 12345; fs = 2.5f + (float)gid; }
		for (int i = 0; i < n; i++) { s += 12345; fs = fs * 2.5f; }
		out[gid] = s + 12345;
		fout[gid] = fs - 2.5f;
	}`, 4},
	{"vector_reads_coalesced", `__kernel void k(__global int* out, __global float* fout, const int n) {
		int gid = get_global_id(0);
		float a = (float)(gid + n) * 2.0f;
		float b = a + 1.0f;
		float4 v = (float4)(a, b, a * b, b - a);
		float4 w = v * v + (float4)(b);
		vstore4(w, gid, fout);
		int p = gid * 3;
		int q = p + n;
		int4 iv = (int4)(p, q, p * q, 7);
		int4 iw = iv + iv * (int4)(q);
		vstore4(iw, gid, out);
	}`, 4},
}

func tier2Args(n int64) func(*flatMem) []vm.ArgValue {
	return func(*flatMem) []vm.ArgValue {
		return []vm.ArgValue{
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 2048)},
			{Bits: n},
		}
	}
}

// TestTier2EngineEquivalence runs each tier-2 case under every engine
// at several trip counts (0 leaves the read-before-write registers
// unwritten) and requires the interpreter's memory, profile, observer
// stream and error.
func TestTier2EngineEquivalence(t *testing.T) {
	for _, c := range tier2Cases {
		for _, n := range []int64{0, 1, 5} {
			t.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(t *testing.T) {
				runEnginesVsInterp(t, c.src, "k", c.local, tier2Args(n), 0)
			})
		}
	}
}

// TestTier2StepLimitMidRun sweeps the step limit across every
// instruction of each tier-2 case, so ErrStepLimit trips at each point
// of the rewritten runs (inside a pure run the compiled engine defers
// the check to the next effectful instruction, where the interpreter's
// fault surfaces too).
func TestTier2StepLimitMidRun(t *testing.T) {
	for _, c := range tier2Cases {
		t.Run(c.name, func(t *testing.T) {
			for limit := uint64(1); limit <= 160; limit++ {
				runEnginesVsInterp(t, c.src, "k", c.local, tier2Args(3), limit)
			}
		})
	}
}
