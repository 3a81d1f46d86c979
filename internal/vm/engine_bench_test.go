package vm_test

import (
	"testing"

	"maligo/internal/clc"
	"maligo/internal/clc/ir"
	"maligo/internal/vm"
)

// Engine benchmarks: one full work-group execution per iteration, the
// same kernels under the reference interpreter, the compiled fast path
// and the lock-step lane engine. `make bench` records them in
// BENCH_vm_v2.json; compare against the committed baseline before
// touching any engine's hot path.
//
// The three kernels cover the execution profiles that dominate the
// paper's benchmarks: a multiply-accumulate loop (arithmetic pipe), a
// gather over global memory (load/store pipe) and a local-memory
// reduction with barriers (work-item switching).
var engineBenchKernels = []struct {
	name string
	src  string
}{
	{"arith", `__kernel void k(__global float* out, __global const float* in, const int n) {
		int gid = get_global_id(0);
		float acc = in[gid & 63];
		for (int i = 0; i < n; i++) {
			acc = acc * 1.000001f + 0.5f;
		}
		out[gid & 63] = acc;
	}`},
	{"memory", `__kernel void k(__global float* out, __global const float* in, const int n) {
		int gid = get_global_id(0);
		float acc = 0.0f;
		for (int i = 0; i < n; i++) {
			acc += in[(gid + i) & 63];
		}
		out[gid & 63] = acc;
	}`},
	{"barrier", `__kernel void k(__global float* out, __global const float* in, const int n) {
		__local float tile[64];
		int lid = get_local_id(0);
		float acc = 0.0f;
		for (int i = 0; i < n; i++) {
			tile[lid] = in[(lid + i) & 63];
			barrier(CLK_LOCAL_MEM_FENCE);
			acc += tile[63 - lid];
			barrier(CLK_LOCAL_MEM_FENCE);
		}
		out[lid] = acc;
	}`},
}

func benchmarkEngineKernel(b *testing.B, src string, eng vm.Engine) {
	prog, err := clc.Compile("bench.cl", src, "")
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	mem := newFlatMem(1024, nil)
	for i := 0; i < 64; i++ {
		mem.putF32(256+4*i, float32(i)*0.25)
	}
	cfg := &vm.GroupConfig{
		Kernel:     prog.Kernel("k"),
		WorkDim:    1,
		LocalSize:  [3]int{64, 1, 1},
		GlobalSize: [3]int{64, 1, 1},
		Args: []vm.ArgValue{
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 256)},
			{Bits: 100},
		},
		Mem:    mem,
		Engine: eng,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var prof vm.Profile
		if err := vm.RunGroup(cfg, &prof); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngine(b *testing.B) {
	for _, k := range engineBenchKernels {
		b.Run(k.name+"/interp", func(b *testing.B) {
			benchmarkEngineKernel(b, k.src, vm.EngineInterp)
		})
		b.Run(k.name+"/compiled", func(b *testing.B) {
			benchmarkEngineKernel(b, k.src, vm.EngineCompiled)
		})
		b.Run(k.name+"/lanes", func(b *testing.B) {
			benchmarkEngineKernel(b, k.src, vm.EngineLanes)
		})
	}
}

var compiledSink *vm.Compiled

// BenchmarkCompileKernel times CompileKernel — pre-decode, the tier-2
// liveness and run rewriting, block closures — over every kernel of
// the nine benchmarks at both precisions. serve-cold pays it once per
// request, on first execution of each kernel. Reports ns/kernel.
func BenchmarkCompileKernel(b *testing.B) {
	ks := benchKernels(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range ks {
			compiledSink = vm.CompileKernel(k)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ks)), "ns/kernel")
}
