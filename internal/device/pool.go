package device

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"maligo/internal/vm"
)

// Pool is a host-side worker pool that executes work-groups
// concurrently. Workers are persistent goroutines so repeated enqueues
// (the harness runs thousands of groups) don't pay goroutine startup.
type Pool struct {
	jobs    chan func()
	workers int
	wg      sync.WaitGroup
	once    sync.Once

	busy atomic.Int64  // workers currently executing a job
	done atomic.Uint64 // jobs completed since creation
}

// NewPool creates a pool with the given number of workers; workers <= 0
// selects runtime.NumCPU().
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	p := &Pool{jobs: make(chan func()), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				p.busy.Add(1)
				job()
				p.busy.Add(-1)
				p.done.Add(1)
			}
		}()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Run executes f on a pool worker and waits for it to return. The
// async command scheduler dispatches command bodies through this, so
// a body's own RunGroups fan-out shares the remaining workers; that
// nesting is deadlock-free because pools only exist with two or more
// workers and at most one command body runs at a time. Must not race
// with Close.
func (p *Pool) Run(f func()) {
	done := make(chan struct{})
	p.jobs <- func() {
		defer close(done)
		f()
	}
	<-done
}

// Stats reports pool occupancy: jobs completed since creation and the
// number of workers executing right now. Both are instantaneous
// observations, meant for metrics gauges.
func (p *Pool) Stats() (jobsDone uint64, busyWorkers int) {
	return p.done.Load(), int(p.busy.Load())
}

// Close stops the workers. Safe to call more than once; must not race
// with submit.
func (p *Pool) Close() {
	p.once.Do(func() {
		close(p.jobs)
		p.wg.Wait()
	})
}

// RaceObserver receives each work-group's detailed memory trace for
// dynamic race analysis (vm.RaceDetector implements it, as does
// vm.LineProfiler for hot-line attribution). Called in dispatch order
// on the consuming goroutine.
type RaceObserver interface {
	ObserveGroup(group [3]int, tr *vm.Trace)
}

// FanObservers combines trace observers so one enqueue can feed both
// the race detector and the line profiler from a single detailed
// trace. Nil entries are dropped; nil is returned when none remain.
func FanObservers(obs ...RaceObserver) RaceObserver {
	var live []RaceObserver
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return observerFan(live)
}

type observerFan []RaceObserver

func (f observerFan) ObserveGroup(group [3]int, tr *vm.Trace) {
	for _, o := range f {
		o.ObserveGroup(group, tr)
	}
}

// RunConfig carries the execution context of one enqueue: an optional
// cancellation context, an optional worker pool and an optional race
// observer. The zero value means "serial, non-cancellable, unchecked"
// — exactly the legacy Run behaviour.
type RunConfig struct {
	Ctx  context.Context
	Pool *Pool
	// Race, when non-nil, makes the engine record detailed (work-item
	// attributed) traces and hand each group's trace to the observer
	// before cost accounting.
	Race RaceObserver
	// Engine selects the VM execution engine (reference interpreter or
	// the closure-compiled fast path); the zero value resolves to the
	// fast path. Both engines are observationally identical.
	Engine vm.Engine
}

// Parallel reports whether this config asks for concurrent execution.
func (rc RunConfig) Parallel() bool { return rc.Pool != nil && rc.Pool.workers > 1 }

// Context returns rc.Ctx or context.Background().
func (rc RunConfig) Context() context.Context {
	if rc.Ctx != nil {
		return rc.Ctx
	}
	return context.Background()
}

// ContextRunner is implemented by devices that support cancellable
// and/or pool-parallel execution. Devices that only implement Run keep
// working: the runtime falls back to serial execution for them.
type ContextRunner interface {
	RunWith(rc RunConfig, ndr *NDRange, mem vm.GlobalMemory) (*Report, error)
}

// GroupWork is one functionally-executed work-group: its profile and
// its recorded memory trace, ready for cost accounting.
type GroupWork struct {
	// Index is the dispatch index (row-major group order).
	Index int
	// Group is the 3-D work-group ID.
	Group [3]int
	// Profile holds the group's instruction counts.
	Profile vm.Profile
	// Trace is the group's memory-event stream in program order: every
	// access, or only those RunGroups' record observer passed on. The
	// consumer should Release it after replaying.
	Trace *vm.Trace
}

// groupResult pairs a GroupWork with its execution error for the
// ordered fan-in.
type groupResult struct {
	index int
	gw    *GroupWork
	err   error
}

// RunGroups executes every work-group of the NDRange and is the one
// entry point both device models use. The device supplies two views of
// the same per-group work:
//
//   - live runs one group straight into the device's stateful model
//     (caches, miss classifier, core scheduler) on the calling
//     goroutine;
//   - consume prices one group a pool worker executed, from its
//     profile and recorded trace.
//
// Without a parallel pool, or when the NDRange has a single work-group
// (a replay would then be a purely serial tail), every group runs live
// in dispatch order, with rc's context checked between groups: no
// trace is recorded and nothing is replayed.
//
// Otherwise the groups execute concurrently on the pool, each against
// its own trace, and consume runs for each group strictly in dispatch
// (row-major) order on the calling goroutine, so a stateful cost model
// sees the exact access stream serial execution would have produced —
// that is what keeps parallel reports bit-identical.
//
// record, when non-nil, returns the observer a worker runs group index
// against in place of the bare trace tr. A device whose groups each
// own some private state (a CPU core's L1 when no core runs two
// groups) applies that state there, live, and passes on to tr only
// the accesses that reach shared state. With a nil record every access
// is traced; race mode needs that full detail trace, so devices pass
// nil there.
//
// Functional memory effects (stores, atomics) hit mem during the
// concurrent phase in nondeterministic group order; this is sound for
// data-parallel kernels, whose groups write disjoint ranges or combine
// via commutative atomics. The first error, in dispatch order, is
// returned — matching the serial engine's "stop at first failing
// group" semantics.
func RunGroups(rc RunConfig, ndr *NDRange, gmem vm.GlobalMemory,
	live func(index int, group [3]int) error,
	record func(index int, tr *vm.Trace) vm.AccessObserver,
	consume func(*GroupWork) error) error {
	if !rc.Parallel() || ndr.NumGroups() == 1 {
		ctx := rc.Context()
		idx := 0
		return ForEachGroup(ndr, func(group [3]int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			err := live(idx, group)
			idx++
			return err
		})
	}

	ctx, cancel := context.WithCancel(rc.Context())
	defer cancel()
	pool := rc.Pool

	// Bound the number of in-flight groups (dispatched but not yet
	// consumed) so trace memory stays proportional to the pool size
	// even when one slow group stalls the ordered consumer.
	window := 2 * pool.Workers()
	sem := make(chan struct{}, window)
	results := make(chan groupResult, window)

	// Dispatcher: enumerate groups in row-major order, submitting each
	// to the pool. Reports how many it dispatched so the fan-in knows
	// when to stop, including after cancellation.
	dispatchedCh := make(chan int, 1)
	go func() {
		dispatched := 0
		_ = ForEachGroup(ndr, func(group [3]int) error {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return ctx.Err()
			}
			idx := dispatched
			g := group
			pool.jobs <- func() {
				res := groupResult{index: idx}
				if err := ctx.Err(); err != nil {
					res.err = err
				} else {
					tr := vm.NewTrace()
					var obs vm.AccessObserver = tr
					if rc.Race != nil {
						tr.EnableDetail()
					}
					if record != nil {
						obs = record(idx, tr)
					}
					gw := &GroupWork{Index: idx, Group: g, Trace: tr}
					res.gw = gw
					res.err = vm.RunGroup(groupConfig(rc, ndr, gmem, g, obs), &gw.Profile)
				}
				results <- res
			}
			dispatched++
			return nil
		})
		dispatchedCh <- dispatched
	}()

	// Ordered fan-in: consume results in dispatch-index order using a
	// reorder buffer. firstErr keeps the lowest-index error, which is
	// the one serial execution would have hit first.
	pending := make(map[int]groupResult)
	next, received := 0, 0
	dispatchedTotal, haveTotal := 0, false
	var firstErr error
	errIndex := -1

	fail := func(idx int, err error) {
		if firstErr == nil || idx < errIndex {
			firstErr, errIndex = err, idx
		}
		cancel()
	}

	for {
		if haveTotal && received == dispatchedTotal {
			break
		}
		select {
		case n := <-dispatchedCh:
			dispatchedTotal, haveTotal = n, true
		case res := <-results:
			received++
			<-sem
			if res.err != nil {
				if res.gw != nil {
					res.gw.Trace.Release()
				}
				// A Canceled error caused by our own internal cancel
				// (after an earlier failure) is fallout, not a finding
				// — it must not displace the real first error.
				if !(errors.Is(res.err, context.Canceled) && rc.Context().Err() == nil) {
					fail(res.index, res.err)
				}
				continue
			}
			if firstErr != nil {
				res.gw.Trace.Release()
				continue
			}
			pending[res.index] = res
			for {
				r, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				if rc.Race != nil {
					rc.Race.ObserveGroup(r.gw.Group, r.gw.Trace)
				}
				if err := consume(r.gw); err != nil {
					fail(r.index, err)
					break
				}
				next++
			}
		}
	}
	for _, r := range pending { // maligo:allow maporder releasing distinct traces commutes
		r.gw.Trace.Release()
	}
	if firstErr != nil {
		return firstErr
	}
	return rc.Context().Err()
}

// RunLive executes one work-group on the calling goroutine straight
// into obs, adding its instruction counts to prof: the live body of a
// device's RunGroups call. In race mode the group's accesses are also
// recorded into a detail trace, which rc.Race observes once the group
// has completed.
func RunLive(rc RunConfig, ndr *NDRange, gmem vm.GlobalMemory, group [3]int, obs vm.AccessObserver, prof *vm.Profile) error {
	cfg := groupConfig(rc, ndr, gmem, group, obs)
	var detail *vm.Trace
	if rc.Race != nil {
		detail = vm.NewTrace()
		detail.EnableDetail()
		cfg.Observer = vm.Tee(obs, detail)
	}
	err := vm.RunGroup(cfg, prof)
	if err == nil && detail != nil {
		rc.Race.ObserveGroup(group, detail)
	}
	detail.Release()
	return err
}

// groupConfig is the VM configuration of one work-group of the
// NDRange, executing against obs.
func groupConfig(rc RunConfig, ndr *NDRange, gmem vm.GlobalMemory, group [3]int, obs vm.AccessObserver) *vm.GroupConfig {
	return &vm.GroupConfig{
		Kernel:       ndr.Kernel,
		WorkDim:      ndr.WorkDim,
		GroupID:      group,
		LocalSize:    ndr.Local,
		GlobalSize:   ndr.Global,
		GlobalOffset: ndr.Offset,
		Args:         ndr.Args,
		Mem:          gmem,
		Observer:     obs,
		Engine:       rc.Engine,
	}
}
