package device_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"maligo/internal/clc"
	"maligo/internal/clc/ir"
	"maligo/internal/device"
	"maligo/internal/device/devicetest"
	"maligo/internal/vm"
)

const idKernel = `
__kernel void ids(__global int* out) {
    size_t i = get_global_id(0);
    out[i] = (int)i;
}
`

func compileKernel(t *testing.T, src, name string) *ir.Kernel {
	t.Helper()
	prog, err := clc.Compile("pool_test.cl", src, "")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	k := prog.Kernel(name)
	if k == nil {
		t.Fatalf("kernel %s not found", name)
	}
	return k
}

func idNDRange(t *testing.T, n, local int) *device.NDRange {
	t.Helper()
	k := compileKernel(t, idKernel, "ids")
	return &device.NDRange{
		Kernel:  k,
		WorkDim: 1,
		Global:  [3]int{n, 1, 1},
		Local:   [3]int{local, 1, 1},
		Args:    []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}},
	}
}

// poolOnly is the live body of runs that must take the pool path.
func poolOnly(t *testing.T) func(int, [3]int) error {
	return func(idx int, _ [3]int) error {
		t.Errorf("group %d ran live on the pool path", idx)
		return nil
	}
}

// liveOnly is the consume body of runs that must run every group live.
func liveOnly(t *testing.T) func(*device.GroupWork) error {
	return func(gw *device.GroupWork) error {
		t.Errorf("group %d went through the pool path", gw.Index)
		gw.Trace.Release()
		return nil
	}
}

// TestRunGroupsOrdering checks that consume sees every group exactly
// once, in dispatch order, regardless of the concurrent execution
// order, and that the functional result lands in memory.
func TestRunGroupsOrdering(t *testing.T) {
	const n, local = 1024, 16
	ndr := idNDRange(t, n, local)
	mem := make(devicetest.Mem, n*4)

	pool := device.NewPool(4)
	defer pool.Close()

	var order []int
	var workItems uint64
	err := device.RunGroups(device.RunConfig{Pool: pool}, ndr, mem, poolOnly(t), nil, func(gw *device.GroupWork) error {
		order = append(order, gw.Index)
		workItems += gw.Profile.WorkItems
		if gw.Trace.Len() == 0 {
			t.Errorf("group %d: empty trace", gw.Index)
		}
		gw.Trace.Release()
		return nil
	})
	if err != nil {
		t.Fatalf("RunGroups: %v", err)
	}
	if len(order) != n/local {
		t.Fatalf("consumed %d groups, want %d", len(order), n/local)
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("consume order[%d] = %d, want %d", i, idx, i)
		}
	}
	if workItems != n {
		t.Fatalf("profile work-items = %d, want %d", workItems, n)
	}
	for i := 0; i < n; i++ {
		v, _ := mem.LoadBits(ir.SpaceGlobal, int64(i*4), 4)
		if int(int32(v)) != i {
			t.Fatalf("out[%d] = %d, want %d", i, int32(v), i)
		}
	}
}

// TestRunGroupsConsumeError checks that an error returned by consume
// aborts the run and is reported.
func TestRunGroupsConsumeError(t *testing.T) {
	ndr := idNDRange(t, 256, 16)
	mem := make(devicetest.Mem, 256*4)
	pool := device.NewPool(4)
	defer pool.Close()

	boom := errors.New("boom")
	calls := 0
	err := device.RunGroups(device.RunConfig{Pool: pool}, ndr, mem, poolOnly(t), nil, func(gw *device.GroupWork) error {
		calls++
		gw.Trace.Release()
		if gw.Index == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls < 4 {
		t.Fatalf("consume ran %d times, want at least 4 (groups 0..3)", calls)
	}
}

// TestRunGroupsCancel checks that a cancelled context aborts the run
// with the context's error.
func TestRunGroupsCancel(t *testing.T) {
	ndr := idNDRange(t, 1024, 16)
	mem := make(devicetest.Mem, 1024*4)
	pool := device.NewPool(2)
	defer pool.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := device.RunGroups(device.RunConfig{Ctx: ctx, Pool: pool}, ndr, mem, poolOnly(t), nil, func(gw *device.GroupWork) error {
		gw.Trace.Release()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunGroupsLiveOrderAndCancel checks the live path without a
// pool: dispatch order and the between-group cancellation point.
func TestRunGroupsLiveOrderAndCancel(t *testing.T) {
	ndr := idNDRange(t, 64, 16)
	var order []int
	err := device.RunGroups(device.RunConfig{}, ndr, nil, func(idx int, group [3]int) error {
		order = append(order, idx)
		if group[0] != idx {
			t.Errorf("group[0] = %d at index %d", group[0], idx)
		}
		return nil
	}, nil, liveOnly(t))
	if err != nil {
		t.Fatalf("RunGroups: %v", err)
	}
	if len(order) != 4 {
		t.Fatalf("ran %d groups, want 4", len(order))
	}

	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	err = device.RunGroups(device.RunConfig{Ctx: ctx}, ndr, nil, func(idx int, group [3]int) error {
		ran++
		if ran == 2 {
			cancel()
		}
		return nil
	}, nil, liveOnly(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 2 {
		t.Fatalf("ran %d groups after cancel, want 2", ran)
	}
}

// TestRunGroupsLoneGroupLive checks that a one-group NDRange runs live
// even with a pool, and that the lone live group honours cancellation
// and returns its error.
func TestRunGroupsLoneGroupLive(t *testing.T) {
	ndr := idNDRange(t, 16, 16)
	pool := device.NewPool(4)
	defer pool.Close()
	rc := device.RunConfig{Pool: pool}

	ran := 0
	err := device.RunGroups(rc, ndr, nil, func(idx int, group [3]int) error {
		ran++
		if idx != 0 || group != [3]int{} {
			t.Errorf("lone group ran as index %d, group %v", idx, group)
		}
		return nil
	}, nil, liveOnly(t))
	if err != nil || ran != 1 {
		t.Fatalf("err = %v, ran %d groups; want nil, 1", err, ran)
	}

	boom := errors.New("boom")
	err = device.RunGroups(rc, ndr, nil, func(int, [3]int) error { return boom }, nil, liveOnly(t))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rc.Ctx = ctx
	ran = 0
	err = device.RunGroups(rc, ndr, nil, func(int, [3]int) error {
		ran++
		return nil
	}, nil, liveOnly(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("a cancelled lone group ran %d times", ran)
	}
}

// privateFilter is a record observer that absorbs every access, the
// stand-in for a device's private cache level catching all of them.
type privateFilter struct{ accesses *atomic.Int64 }

func (f privateFilter) OnAccess(space int, addr int64, size int, write bool) { f.accesses.Add(1) }

func (f privateFilter) OnAtomic(space int, addr int64, size int) {}

// TestRunGroupsRecord checks that record's observer is what each
// worker runs against: it sees every access, consume sees only what
// it passed on (here nothing), and record is called once per group
// with its dispatch index.
func TestRunGroupsRecord(t *testing.T) {
	const n, local = 256, 16
	ndr := idNDRange(t, n, local)
	mem := make(devicetest.Mem, n*4)
	pool := device.NewPool(2)
	defer pool.Close()

	var accesses atomic.Int64
	seen := make([]atomic.Int32, n/local)
	err := device.RunGroups(device.RunConfig{Pool: pool}, ndr, mem, poolOnly(t),
		func(idx int, tr *vm.Trace) vm.AccessObserver {
			seen[idx].Add(1)
			return privateFilter{&accesses}
		},
		func(gw *device.GroupWork) error {
			if got := gw.Trace.Len(); got != 0 {
				t.Errorf("group %d: %d records passed the filter, want 0", gw.Index, got)
			}
			gw.Trace.Release()
			return nil
		})
	if err != nil {
		t.Fatalf("RunGroups: %v", err)
	}
	// Each work-item stores its ID once.
	if got := accesses.Load(); got < n {
		t.Fatalf("filter saw %d accesses, want at least %d", got, n)
	}
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("record called %d times for group %d, want 1", c, i)
		}
	}
}

// slowObserver stalls on every group trace, widening the window in
// which cancellation catches a run mid-flight — the regression shape
// for the ordered fan-in stalling behind a slow consumer.
type slowObserver struct{ delay time.Duration }

func (o slowObserver) ObserveGroup(group [3]int, tr *vm.Trace) { time.Sleep(o.delay) }

// waitGoroutines polls until the goroutine count returns to the
// baseline (stdlib-only leak check; the runtime may lag a little
// after channel teardown).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), base)
}

// TestRunGroupsSlowObserverCancelNoLeak cancels a run whose ordered
// fan-in is stalled behind a slow observer and checks the whole
// machinery — dispatcher, window semaphore, reorder buffer, pool
// workers — unwinds without leaking goroutines.
func TestRunGroupsSlowObserverCancelNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	ndr := idNDRange(t, 4096, 16)
	mem := make(devicetest.Mem, 4096*4)
	pool := device.NewPool(4)

	ctx, cancel := context.WithCancel(context.Background())
	consumed := 0
	err := device.RunGroups(device.RunConfig{
		Ctx:  ctx,
		Pool: pool,
		Race: slowObserver{delay: time.Millisecond},
	}, ndr, mem, poolOnly(t), nil, func(gw *device.GroupWork) error {
		consumed++
		gw.Trace.Release()
		if consumed == 2 {
			cancel() // cancel mid-run, with groups still in flight
		}
		return nil
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if consumed >= 4096/16 {
		t.Fatal("cancellation did not stop the run early")
	}
	pool.Close()
	waitGoroutines(t, base)
}

// TestRunGroupsConsumeErrorNoLeak checks the error-abort path also
// unwinds cleanly when in-flight groups are still being dispatched.
func TestRunGroupsConsumeErrorNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	ndr := idNDRange(t, 4096, 16)
	mem := make(devicetest.Mem, 4096*4)
	pool := device.NewPool(4)

	boom := errors.New("boom")
	err := device.RunGroups(device.RunConfig{Pool: pool}, ndr, mem, poolOnly(t), nil, func(gw *device.GroupWork) error {
		gw.Trace.Release()
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	pool.Close()
	waitGoroutines(t, base)
}

// TestPoolRunNested checks Pool.Run — the scheduler's command-body
// entry point — both alone and with a nested RunGroups fan-out
// sharing the remaining workers, the exact shape async NDRange
// commands produce.
func TestPoolRunNested(t *testing.T) {
	pool := device.NewPool(2)
	defer pool.Close()

	ran := false
	pool.Run(func() { ran = true })
	if !ran {
		t.Fatal("Run did not execute the function")
	}

	ndr := idNDRange(t, 256, 16)
	mem := make(devicetest.Mem, 256*4)
	var groups int
	pool.Run(func() {
		err := device.RunGroups(device.RunConfig{Pool: pool}, ndr, mem, poolOnly(t), nil, func(gw *device.GroupWork) error {
			groups++
			gw.Trace.Release()
			return nil
		})
		if err != nil {
			t.Errorf("nested RunGroups: %v", err)
		}
	})
	if groups != 256/16 {
		t.Fatalf("nested run consumed %d groups, want %d", groups, 256/16)
	}
}

// TestPoolCloseIdempotent checks Close can be called repeatedly.
func TestPoolCloseIdempotent(t *testing.T) {
	p := device.NewPool(3)
	if p.Workers() != 3 {
		t.Fatalf("Workers = %d, want 3", p.Workers())
	}
	p.Close()
	p.Close()
}
