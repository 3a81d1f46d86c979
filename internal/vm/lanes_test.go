package vm_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"maligo/internal/clc/ir"
	"maligo/internal/clc/types"
	"maligo/internal/vm"
)

// streamObserver records the full ordered observer callback stream —
// every OnContext and OnAccess/OnAtomic with all arguments — so tests
// can require the lane engine's replayed stream to be event-for-event
// identical to the serial engines'. This is the sharpest pin on the
// masked-lane side-effect bug class: an inactive lane that writes
// memory, emits a trace record, or faults differently shows up here as
// a stream diff even when the final memory image happens to agree.
type streamObserver struct {
	events []streamEvent
}

type streamEvent struct {
	kind              string // "ctx", "access", "atomic"
	item, phase, line int
	space             int
	addr              int64
	size              int
	write             bool
}

func (o *streamObserver) OnAccess(space int, addr int64, size int, write bool) {
	o.events = append(o.events, streamEvent{kind: "access", space: space, addr: addr, size: size, write: write})
}

func (o *streamObserver) OnAtomic(space int, addr int64, size int) {
	o.events = append(o.events, streamEvent{kind: "atomic", space: space, addr: addr, size: size})
}

func (o *streamObserver) OnContext(item, phase, line int) {
	o.events = append(o.events, streamEvent{kind: "ctx", item: item, phase: phase, line: line})
}

func (o *streamObserver) ContextActive() bool { return true }

// runEnginesVsInterp executes the same work-group under the
// interpreter and under each fast engine (compiled, lanes) with full
// stream observation and requires every observable to match: memory,
// profile, error, and the ordered callback stream.
func runEnginesVsInterp(t *testing.T, src, kernel string, local int, args func(*flatMem) []vm.ArgValue, stepLimit uint64) {
	t.Helper()
	prog := mustCompile(t, src, "")
	run := func(eng vm.Engine) ([]byte, vm.Profile, []streamEvent, error) {
		mem := newFlatMem(4096, nil)
		obs := &streamObserver{}
		cfg := &vm.GroupConfig{
			Kernel:     prog.Kernel(kernel),
			WorkDim:    1,
			LocalSize:  [3]int{local, 1, 1},
			GlobalSize: [3]int{local, 1, 1},
			Args:       args(mem),
			Mem:        mem,
			Observer:   obs,
			StepLimit:  stepLimit,
			Engine:     eng,
		}
		var prof vm.Profile
		err := vm.RunGroup(cfg, &prof)
		return mem.global, prof, obs.events, err
	}
	refMem, refProf, refEvents, refErr := run(vm.EngineInterp)
	for _, eng := range []vm.Engine{vm.EngineCompiled, vm.EngineLanes} {
		gotMem, gotProf, gotEvents, gotErr := run(eng)
		if (refErr == nil) != (gotErr == nil) || (refErr != nil && refErr.Error() != gotErr.Error()) {
			t.Fatalf("errors differ:\n interp: %v\n %v: %v", refErr, eng, gotErr)
		}
		if len(refEvents) != len(gotEvents) {
			t.Fatalf("observer stream length differs: interp %d, %v %d", len(refEvents), eng, len(gotEvents))
		}
		for i := range refEvents {
			if refEvents[i] != gotEvents[i] {
				t.Fatalf("observer stream diverges at event %d:\n interp: %+v\n %v: %+v", i, refEvents[i], eng, gotEvents[i])
			}
		}
		if refErr != nil {
			continue // callers discard memory and profile on failure
		}
		if !bytes.Equal(refMem, gotMem) {
			t.Fatalf("memory differs:\n interp: %v\n %v: %v", refMem, eng, gotMem)
		}
		if !reflect.DeepEqual(refProf, gotProf) {
			t.Fatalf("profiles differ:\n interp: %+v\n %v: %+v", refProf, eng, gotProf)
		}
	}
}

// TestLanesMaskedLaneSideEffects pins the SIMT predication bug class
// on divergent kernels: lanes disabled by a branch must not write
// memory, bump counters or emit trace records. Each kernel makes only
// a data-dependent subset of lanes perform stores; the lane engine's
// replayed stream must be event-for-event the interpreter's.
func TestLanesMaskedLaneSideEffects(t *testing.T) {
	const src = `
__kernel void masked(__global int* out) {
	int gid = get_global_id(0);
	if (gid & 1) {
		out[gid] = gid * 3;
	}
	if (gid == 5) {
		out[0] = -1;
	}
}

__kernel void masked_loop(__global int* out) {
	int gid = get_global_id(0);
	int s = 0;
	for (int i = 0; i < gid; i++) {
		s += i;
		if (i == 2) { out[gid] = s; }
	}
	out[32 + gid] = s;
}
`
	args := func(m *flatMem) []vm.ArgValue {
		return []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}}
	}
	for _, k := range []string{"masked", "masked_loop"} {
		k := k
		t.Run(k, func(t *testing.T) {
			runEnginesVsInterp(t, src, k, 16, args, 0)
		})
	}
}

// TestLanesObserverCorpusIdentical replays the race-detector and
// line-profiler corpus kernels (racy local-memory shift, its
// barrier-fixed variant) under the lane engine, requiring the ordered
// observer stream to match the interpreter exactly. The racy kernel is
// the golden for stream-derived observables: races and hot lines are
// computed from this stream, so stream identity pins them.
func TestLanesObserverCorpusIdentical(t *testing.T) {
	const local = 8
	args := func(m *flatMem) []vm.ArgValue {
		return []vm.ArgValue{
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
			{LocalSize: (local + 1) * 4},
		}
	}
	for _, k := range []string{"shift", "shift_fixed"} {
		k := k
		t.Run(k, func(t *testing.T) {
			prog := mustCompile(t, raceLocalSrc, "")
			run := func(eng vm.Engine) ([]streamEvent, []byte) {
				mem := newFlatMem(4096, nil)
				obs := &streamObserver{}
				cfg := &vm.GroupConfig{
					Kernel:     prog.Kernel(k),
					WorkDim:    1,
					LocalSize:  [3]int{local, 1, 1},
					GlobalSize: [3]int{local, 1, 1},
					Args:       args(mem),
					Mem:        mem,
					Observer:   obs,
					Engine:     eng,
				}
				var prof vm.Profile
				if err := vm.RunGroup(cfg, &prof); err != nil {
					t.Fatalf("RunGroup(%v): %v", eng, err)
				}
				return obs.events, mem.global
			}
			refEvents, refMem := run(vm.EngineInterp)
			gotEvents, gotMem := run(vm.EngineLanes)
			if !reflect.DeepEqual(refEvents, gotEvents) {
				t.Fatalf("observer streams differ (interp %d events, lanes %d)", len(refEvents), len(gotEvents))
			}
			// Racy memory is undefined — lock-step execution legitimately
			// observes neighbours' same-phase writes the serial engines
			// haven't made yet — so only the race-free variant pins the
			// memory image. The replayed stream above must match for both.
			if k == "shift_fixed" && !bytes.Equal(refMem, gotMem) {
				t.Fatalf("memory differs on %s", k)
			}
		})
	}
}

// TestLanesDivergenceReconverges checks min-pc block scheduling: lanes
// that branch apart re-merge at the post-dominator and finish with the
// serial engines' exact state, including nested and loop divergence.
func TestLanesDivergenceReconverges(t *testing.T) {
	const src = `
__kernel void diverge(__global int* out, const int n) {
	int gid = get_global_id(0);
	int v = 0;
	if (gid < 4) {
		if (gid & 1) { v = gid * 100; } else { v = -gid; }
	} else {
		for (int i = 0; i < gid - 2; i++) { v += i * n; }
	}
	out[gid] = v + 7;
}
`
	runEnginesVsInterp(t, src, "diverge", 16, func(m *flatMem) []vm.ArgValue {
		return []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}, {Bits: 3}}
	}, 0)
}

// TestLanesBarrierPhases checks the full-batch barrier sync point
// against the serial phase protocol, including work between barriers
// that depends on what other work-items wrote in the previous phase.
func TestLanesBarrierPhases(t *testing.T) {
	const src = `
__kernel void phases(__global int* out, __local int* tile) {
	int lid = get_local_id(0);
	int n = get_local_size(0);
	tile[lid] = lid + 1;
	barrier(CLK_LOCAL_MEM_FENCE);
	int v = tile[(lid + 1) % n];
	barrier(CLK_LOCAL_MEM_FENCE);
	tile[lid] = v * 2;
	barrier(CLK_LOCAL_MEM_FENCE);
	out[lid] = tile[(lid + n - 1) % n];
}
`
	// 20 work-items: one full batch plus a partial tail batch, so the
	// cross-batch barrier protocol is exercised too.
	runEnginesVsInterp(t, src, "phases", 20, func(m *flatMem) []vm.ArgValue {
		return []vm.ArgValue{
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
			{LocalSize: 32 * 4},
		}
	}, 0)
}

// TestLanesBarrierDivergence: work-items disagreeing on barrier
// execution must yield ErrBarrierDivergence from every engine.
func TestLanesBarrierDivergence(t *testing.T) {
	const src = `
__kernel void bardiv(__global int* out) {
	int lid = get_local_id(0);
	if (lid < 2) {
		barrier(CLK_LOCAL_MEM_FENCE);
	}
	out[lid] = lid;
}
`
	prog := mustCompile(t, src, "")
	for _, eng := range []vm.Engine{vm.EngineInterp, vm.EngineCompiled, vm.EngineLanes} {
		mem := newFlatMem(4096, nil)
		cfg := &vm.GroupConfig{
			Kernel:     prog.Kernel("bardiv"),
			WorkDim:    1,
			LocalSize:  [3]int{4, 1, 1},
			GlobalSize: [3]int{4, 1, 1},
			Args:       []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}},
			Mem:        mem,
			Engine:     eng,
		}
		var prof vm.Profile
		if err := vm.RunGroup(cfg, &prof); !errors.Is(err, vm.ErrBarrierDivergence) {
			t.Errorf("%v: err = %v, want ErrBarrierDivergence", eng, err)
		}
	}
}

// TestLanesStepLimitBoundary sweeps the step limit across the exact
// serial trip point. The limit is group-cumulative, so under lock-step
// execution the lane engine must reconstruct precisely which work-item
// the interpreter would have tripped on — including the stream
// truncation point — for limits landing before, on and after item
// boundaries.
func TestLanesStepLimitBoundary(t *testing.T) {
	const src = `
__kernel void work(__global int* out) {
	int gid = get_global_id(0);
	int s = 0;
	for (int i = 0; i <= gid; i++) { s += i; }
	out[gid] = s;
}
`
	args := func(m *flatMem) []vm.ArgValue {
		return []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}}
	}
	// Find the exact total step count of the group first.
	prog := mustCompile(t, src, "")
	mem := newFlatMem(4096, nil)
	var prof vm.Profile
	if err := vm.RunGroup(&vm.GroupConfig{
		Kernel: prog.Kernel("work"), WorkDim: 1,
		LocalSize: [3]int{8, 1, 1}, GlobalSize: [3]int{8, 1, 1},
		Args: args(mem), Mem: mem, Engine: vm.EngineInterp,
	}, &prof); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	total := prof.Instrs
	for _, limit := range []uint64{1, 2, 3, total / 4, total / 2, total - 1, total, total + 1} {
		limit := limit
		t.Run("", func(t *testing.T) {
			runEnginesVsInterp(t, src, "work", 8, args, limit)
		})
	}
}

// TestLanesFaultIdentity: out-of-bounds accesses must surface the
// byte-identical error from the same work-item, with observer streams
// truncated at the same event — even when the faulting lane is in the
// middle of a batch and other lanes would have kept running.
func TestLanesFaultIdentity(t *testing.T) {
	const src = `
__kernel void oob(__global int* out, const int bad) {
	int gid = get_global_id(0);
	int tmp[4];
	tmp[gid & 3] = gid;
	int idx = (gid == bad) ? 1000 : (gid & 3);
	out[gid] = tmp[idx];
}
`
	for _, bad := range []int64{0, 3, 7, 15} {
		bad := bad
		t.Run("", func(t *testing.T) {
			runEnginesVsInterp(t, src, "oob", 16, func(m *flatMem) []vm.ArgValue {
				return []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}, {Bits: bad}}
			}, 0)
		})
	}
}

// TestLanesAtomicsFallback: kernels containing atomics run on the
// compiled engine even under EngineLanes (lock-step atomic
// interleaving cannot match serial execution), so results stay
// bit-identical to the oracle.
func TestLanesAtomicsFallback(t *testing.T) {
	const src = `
__kernel void count(__global int* hist, __global const int* in) {
	int gid = get_global_id(0);
	atomic_add(&hist[in[gid] & 3], 1);
}
`
	prog := mustCompile(t, src, "")
	if lc := vm.CompileLanes(prog.Kernel("count")); !lc.HasAtomics() {
		t.Fatal("lane compiler should flag the atomic kernel")
	}
	runEnginesVsInterp(t, src, "count", 16, func(m *flatMem) []vm.ArgValue {
		for i := 0; i < 16; i++ {
			m.putI32(64+4*i, int32(i*7))
		}
		return []vm.ArgValue{
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 64)},
		}
	}, 0)
}

// TestLanesPCOutOfRange: a hand-built kernel that jumps past the end
// of its code must fault with the serial engines' exact pc error, not
// crash, and the error must not consume a step.
func TestLanesPCOutOfRange(t *testing.T) {
	k := &ir.Kernel{
		Name: "jmpout",
		Code: []ir.Instr{
			{Op: ir.ImmI, A: 0, Imm: 1, Base: types.Int},
			{Op: ir.Jmp, Imm: 99},
		},
		NumI: 1,
	}
	var want string
	for _, eng := range []vm.Engine{vm.EngineInterp, vm.EngineCompiled, vm.EngineLanes} {
		var prof vm.Profile
		err := vm.RunGroup(&vm.GroupConfig{
			Kernel: k, WorkDim: 1,
			LocalSize: [3]int{4, 1, 1}, GlobalSize: [3]int{4, 1, 1},
			Mem: newFlatMem(64, nil), Engine: eng,
		}, &prof)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("%v: err = %v, want pc out of range", eng, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("%v: error %q differs from interp %q", eng, err.Error(), want)
		}
	}
}

// TestLanesVectorKernel exercises the generic (pFn) executors and the
// vector memory path: float4 arithmetic with vector loads and stores.
func TestLanesVectorKernel(t *testing.T) {
	const src = `
__kernel void vec(__global float4* out, __global const float4* in) {
	int gid = get_global_id(0);
	float4 v = in[gid];
	out[gid] = v * v + (float4)(1.0f, 2.0f, 3.0f, 4.0f);
}
`
	runEnginesVsInterp(t, src, "vec", 16, func(m *flatMem) []vm.ArgValue {
		for i := 0; i < 64; i++ {
			m.putF32(1024+4*i, float32(i)*0.5)
		}
		return []vm.ArgValue{
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 1024)},
		}
	}, 0)
}

// TestLanesBuiltins exercises the gather/scatter builtin path:
// transcendentals whose profile counting and register traffic must
// match the serial engines per lane.
func TestLanesBuiltins(t *testing.T) {
	const src = `
__kernel void transc(__global float* out, __global const float* in) {
	int gid = get_global_id(0);
	float x = in[gid];
	out[gid] = sqrt(x) + exp(x * 0.01f) * sin(x);
}
`
	runEnginesVsInterp(t, src, "transc", 16, func(m *flatMem) []vm.ArgValue {
		for i := 0; i < 16; i++ {
			m.putF32(256+4*i, float32(i)+0.25)
		}
		return []vm.ArgValue{
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 256)},
		}
	}, 0)
}

// TestLanesPartialTailBatch: group sizes that don't divide LaneWidth
// leave a short tail batch; its lanes must behave exactly like full
// ones.
func TestLanesPartialTailBatch(t *testing.T) {
	const src = `
__kernel void tail(__global int* out) {
	int gid = get_global_id(0);
	out[gid] = gid * gid + 1;
}
`
	for _, local := range []int{1, 3, 15, 16, 17, 33} {
		local := local
		t.Run("", func(t *testing.T) {
			runEnginesVsInterp(t, src, "tail", local, func(m *flatMem) []vm.ArgValue {
				return []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}}
			}, 0)
		})
	}
}
