// Package maligo is a full Go reproduction of "Energy Efficient HPC on
// Embedded SoCs: Optimization Techniques for Mali GPU" (Grasso,
// Radojković, Rajović, Gelado, Ramirez — IEEE IPDPS 2014).
//
// The original study needs a 2013 Samsung Exynos 5250 board with an
// ARM Mali-T604 GPU, an OpenCL Full Profile driver and a bench power
// meter. This module substitutes all of it with simulation built from
// scratch on the Go standard library, behind one public package.
//
// # Quickstart
//
// A Platform is one simulated Arndale board: two Cortex-A15 device
// views, the Mali-T604, unified memory and a power meter.
//
//	p := maligo.NewPlatform()
//	defer p.Close()
//	ctx := p.Context
//
//	prog := ctx.CreateProgramWithSource(src)
//	if err := prog.Build(""); err != nil { ... }
//	k, _ := prog.CreateKernel("saxpy")
//
//	buf, _ := ctx.CreateBuffer(maligo.MemReadWrite|maligo.MemAllocHostPtr, n*4, nil)
//	k.SetArgBuffer(0, buf)
//
//	q := ctx.CreateCommandQueue(p.Mali())
//	q.EnqueueNDRangeKernel(k, 1, []int{n}, []int{64})
//	q.Finish()
//	meas, act := p.Measure(q) // board power, energy, device activity
//
// NewPlatform and NewContext share one functional-option vocabulary:
// WithArenaBytes sizes the unified memory, WithWorkers sets the
// parallel NDRange engine's host worker count, WithEngine selects the
// VM engine, WithAsyncQueues enables the DAG scheduler, WithDevices
// picks a standalone context's devices, and WithMeterHz/WithMeterSeed
// configure the simulated power meter. The older per-constructor
// spellings (ContextDevices, WithOutOfOrderQueues, ...) remain as
// deprecated aliases.
//
// # The parallel execution engine
//
// Kernels execute instruction by instruction, so simulation cost
// scales with the workload. The engine shards an NDRange's work-groups
// across a pool of host CPUs (default runtime.NumCPU()): each worker
// runs groups against the shared unified-memory arena while recording
// its memory accesses into a trace, and the traces are replayed in
// dispatch order into the stateful cache/DRAM model. Only traffic that
// reaches shared state is traced: a lone work-group runs live into the
// model with no trace at all, and when a CPU launch has no more groups
// than cores each worker drives its core's private L1 live and traces
// only the misses, so the replay sees just shared-L2 traffic.
// Simulated timing, power and energy are therefore bit-identical at
// every worker count — only the simulator's own wall-clock changes.
// WithWorkers(1) forces the serial engine; Queue.FinishCtx and
// EnqueueNDRangeKernelCtx accept a context.Context for cancellation.
//
// # Execution engines: a three-tier contract
//
// Inside each worker, the VM runs kernels on one of three engines
// (WithEngine, the malisim/malid -engine flags, or MALIGO_ENGINE):
//
//   - EngineInterp — the reference switch-dispatch interpreter. Slow,
//     simple, and the oracle: every other tier is defined as
//     "observationally identical to interp".
//   - EngineCompiled — the closure-compiled fast path (the default).
//     Kernels pre-decode into basic blocks of fused execution units.
//     A tier-2 lowering driven by one liveness pass per kernel then
//     removes the copies and immediates the IR keeps (coalescing,
//     copy propagation, read-only constant slots, dead-write
//     elimination) from what the host executes. Profile counts still
//     come from the unmodified IR: each block adds its static
//     arithmetic delta through one execution counter, and steps, pcs
//     and fault points follow the original instruction stream,
//     because that stream is what the simulated device is priced on.
//   - EngineLanes — the lock-step lane-batched SIMT executor. Work-items
//     run 16 to a batch over structure-of-arrays register files with an
//     active-lane mask for divergent control flow, reconverging at
//     post-dominators; barriers synchronize whole batches, and
//     unit-stride global loads and stores move as bulk slice copies.
//
// The contract across all three tiers is bit-identity in every
// observable: memory images, profiles, profiling timestamps, traces,
// race reports, hot-line attribution, fault messages and step-limit
// errors. The interpreter stays authoritative; a 3-way differential
// suite (fuzzed kernels plus the full benchmark matrix) enforces the
// contract, and ParseEngine rejects unknown engine names with
// ErrUnknownEngine instead of silently falling back (daemons validate
// MALIGO_ENGINE at startup via EngineFromEnvStrict).
//
// The same IR that feeds the engines also feeds code generation:
// internal/clc/backend emits standalone artifacts from a compiled
// kernel — "irdump" renders the canonical textual IR, "gosrc" emits a
// self-contained Go package that executes the kernel as a basic-block
// state machine against a small Machine interface. Snapshot tests pin
// both emitters byte-for-byte on every paper benchmark kernel.
//
// # Asynchronous queues
//
// WithAsyncQueues(true) (on a platform or a standalone context)
// routes every enqueue through a per-context DAG scheduler
// that implements the OpenCL 1.1 event model: the Enqueue*Async
// variants take event wait-lists and return pending Events
// immediately, queues come in in-order and out-of-order flavours
// (CreateCommandQueueWith + QueueOutOfOrderExec), and user events,
// markers and barriers (CreateUserEvent, EnqueueMarkerWithWaitList,
// EnqueueBarrierWithWaitList) order commands within and across
// queues. Two benchmarks overlapped on separate queues:
//
//	p := maligo.NewPlatform(maligo.WithAsyncQueues(true))
//	defer p.Close()
//	q1 := p.Context.CreateCommandQueueWith(p.Mali(), maligo.QueueOutOfOrderExec)
//	q2 := p.Context.CreateCommandQueueWith(p.Mali(), maligo.QueueOutOfOrderExec)
//
//	// Independent uploads and launches overlap in simulated time;
//	// the wait-lists are the only ordering.
//	w1, _ := q1.EnqueueWriteBufferAsync(bufA, 0, hostA, nil)
//	w2, _ := q2.EnqueueWriteBufferAsync(bufB, 0, hostB, nil)
//	e1, _ := maligo.EnqueueAsync(q1, kConv, 1, []int{n}, []int{64}, w1)
//	e2, _ := maligo.EnqueueAsync(q2, kBody, 1, []int{n}, []int{64}, w2)
//	// Read kConv's output only after both kernels are done.
//	rd, _ := q1.EnqueueReadBufferAsync(bufA, 0, out, []*maligo.Event{e1, e2})
//	_ = maligo.WaitForEvents(rd)
//
// Scheduling is deterministic: the profiling timestamps are a pure
// function of the dependency DAG and the timing model, never of host
// goroutine interleaving, so in-order chains stay bit-identical to
// the synchronous queue and out-of-order overlap windows reproduce
// exactly on every host and worker count. Misuse surfaces as typed
// errors (ErrEventCycle, ErrDoubleWait, ErrOrphanEvent,
// ErrForeignEvent, ErrNotUserEvent, ErrEventComplete,
// ErrEventDepFailed), and Queue.FinishCtx detects stalls behind
// never-signalled user events instead of hanging.
//
// # Reproducing the paper
//
// RunExperiments executes the paper's nine benchmarks (BenchmarkNames)
// in four versions and two precisions and regenerates every figure of
// §V; see ExperimentConfig, Results and Figures. The benchmarks in
// bench_test.go expose the same matrix as `go test -bench` targets,
// and the commands under cmd/ (malisim, figures, clc) wrap it all on
// the command line.
//
// Compile gives direct access to the embedded OpenCL C compiler, and
// CheckKernelResources applies the Mali register-budget model the
// paper's optimization chapters revolve around.
//
// # Kernel static analysis
//
// Analyze runs the kernel linter: a set of passes over the compiler's
// typed AST and lowered IR that check OpenCL C against the paper's §V
// optimization techniques (scalar loads in unit-stride loops that the
// 128-bit pipes want vectorized, missing const/restrict qualifiers,
// CPU-style copy-to-private staging that pessimizes Mali, AoS layouts,
// short unrollable loops, register demand beyond the Mali budget) and
// diagnose correctness hazards (barrier calls under divergent control
// flow, intra-work-group data races, out-of-bounds indices). The
// correctness passes run on a tier-2 dataflow engine
// (internal/clc/analysis/dataflow): a CFG and worklist solver over
// the lowered IR propagate constants, value intervals, affine forms
// in the work-item ids and divergence facts through branches, loops
// and inlined helper calls, so races are proven by index separation
// across barrier phases and bounds findings cover interval-derived
// overruns, not just literal constants. Diagnostics carry a source
// position, a severity and a fix hint; FormatDiagnostics and
// FormatDiagnosticsJSON render them, MaxDiagnosticSeverity gates them,
// and AnalysisPasses lists the registry (AnalyzeWith restricts a run
// to named passes). The same report is available
// from a built Program via its Diagnostics method, and on the command
// line as `clc -analyze` (with -passes to filter) and `malisim -lint`.
//
// The race diagnostics have a dynamic confirmation tier:
// Queue.SetRaceCheck(true) makes subsequent enqueues record
// work-item-attributed memory traces, scan them for same-barrier-phase
// conflicts in the VM, and attach a RaceCheckResult — the static
// findings, the dynamically observed races (DataRace), and their
// overlap via Confirmed — to the returned Event.
//
// # The optimizer
//
// Where the analyzer diagnoses, the optimizer acts: Optimize runs a
// fixed pipeline of IR-to-IR transform passes (internal/clc/opt) that
// apply the paper's §V techniques mechanically — const/restrict
// promotion of pointer parameters, AoS-to-SoA access rewriting,
// unit-stride loop vectorization to the 128-bit pipes with a scalar
// remainder, and short-loop unrolling under the register budget. Each
// pass names the analyzer diagnostics it answers, and the returned
// OptimizeReport records, per kernel and per pass, whether it applied
// (and at how many sites) or why it refused — so the report reads as
// the transform-side reply to Diagnostics. OptimizeWith restricts a
// run to named passes, OptimizePasses lists the registry, and
// KernelIRDump renders a kernel's IR so before/after diffs are
// inspectable (`clc -optimize -dis` prints them).
//
// The contract is the same as the engines': a transformed program is
// bit-identical to the original in every observable memory image,
// with the reference interpreter on untransformed IR as the oracle —
// enforced by a golden corpus, a cross-engine differential matrix
// over the benchmark kernels, and a fuzzer. Transforms change timing
// (that is their point) but never results. The daemon opts in with
// `malid -optimize`: admitted programs run through the pipeline,
// original and transformed binaries cache under distinct content
// addresses, and responses carry the applied passes in an
// X-Malid-Optimize header.
//
// # Observability
//
// Every Event carries the four clGetEventProfilingInfo timestamps
// (Queued, Submitted, Started, Ended) in simulated seconds on its
// queue's clock; Queue.Profiling returns them in nanoseconds as
// ProfilingInfo. Because they derive purely from the timing model,
// they are bit-identical at every engine worker count. Queue.Timeline
// exports the event history as Spans and WriteChromeTrace renders
// them as Chrome tracing JSON, loadable in chrome://tracing or
// https://ui.perfetto.dev.
//
// The runtime also feeds a metrics registry per context — enqueue and
// work-item counters, DRAM/copy traffic, duration histograms, and
// callback gauges for arena occupancy, engine-pool activity and
// per-device L2 hit rates. Platform.Metrics (or Context.Metrics)
// hands it out; Snapshot freezes it into a MetricsSnapshot with
// deterministic text and JSON renderings.
//
// Queue.SetLineProfile(true) turns on pprof-style hot-line
// attribution: subsequent enqueues record detailed traces and
// Queue.LineProfile().Top(n) returns the n source lines moving the
// most bytes; FormatHotLines renders them against the kernel source.
// On the command line, `malisim -trace out.json -metrics -hotlines 5`
// exposes all three, and `tracecheck` validates the exported JSON.
//
// # Device fleet
//
// Every calibration number the timing, cache and power models consume
// lives in a platform document — a SoC value holding the CPU cluster
// (CPUModel), the GPU (GPUModel), the memory system (DRAMModel), the
// board's power rails (PowerRailModel) and the meter, each unit with
// its own DVFS OperatingPoint ladder. Registered models are looked up
// by name:
//
//	soc, err := maligo.LookupDevice("exynos5422")   // ErrUnknownDevice on a typo
//	p := maligo.NewPlatform(maligo.WithSoC(soc))
//
// The fleet ships three models: "exynos5250" (the paper's Arndale
// board — the default everywhere, bit-identical to the pre-fleet
// constants), and the Odroid-XU3's two scheduler views "exynos5422"
// (quad Cortex-A7 LITTLE + Mali-T628 MP6) and "exynos5422-big" (quad
// 2.0 GHz Cortex-A15 + the same GPU). DeviceNames and Devices list
// them; malisim, figures and malid take -device. Adding a model is
// one data file in internal/platform with an init Register — each
// SoC's Dump form is pinned by a golden file under testdata/platform
// (refresh with `go test -run Golden -update .`), and the fleet
// differential suite automatically runs every benchmark on it under
// all three engines.
//
// On top of the fleet sits the cross-device autotuner: Autotune
// exhaustively enumerates placements of one benchmark — device ×
// target unit (serial core, OpenMP cluster, GPU) × DVFS operating
// point × GPU work-group size × §V transform pass set — scores each
// candidate with the deterministic energy model, and reports the
// energy-optimal and time-optimal placements:
//
//	rep, err := maligo.Autotune(maligo.TuneSpace{Bench: "dmmm"})
//	fmt.Print(rep.Render())           // byte-stable table, optima marked
//	best := rep.EnergyOptimal()       // argmin over supported candidates
//
// The report is byte-for-byte deterministic across runs and host
// worker counts; listing more than one engine in TuneSpace.Engines
// turns every candidate into a cross-engine differential that fails
// on the first mismatched bit. cmd/malitune is the CLI
// (`malitune -bench dmmm -device exynos5250,exynos5422`), and
// `figures -fleet` renders the fleet-wide placement tables in
// EXPERIMENTS.md.
//
// # Serving
//
// The simulator also runs as a daemon: cmd/malid serves a versioned
// JSON API where a JobSpec — OpenCL C source (or a cached program's
// content address), kernel arguments and an NDRange — is POSTed to
// /v1/jobs and answered with the deterministic simulated JobResult
// (timing, event timestamps, power, energy, optional buffer dumps).
// Tenants get independent in-order admission queues with a quota over
// one shared device pool; programs compile once per content address
// into an LRU cache (optionally persisted to disk) and are shared
// across tenants; small NDRanges batch onto one pooled context. The
// same document runs in-process:
//
//	spec := &maligo.JobSpec{
//		Source: src, Kernel: "saxpy", Device: maligo.JobDeviceGPU,
//		Global: []int{n},
//		Args: []maligo.JobArg{
//			{Kind: maligo.JobArgBuffer, Data: xBytes},
//			{Kind: maligo.JobArgBuffer, Size: int64(n * 4), Read: true},
//			{Kind: maligo.JobArgFloat, Float: 2.0},
//			{Kind: maligo.JobArgInt, Int: n},
//		},
//	}
//	res, err := maligo.RunJob(spec)                  // in-process
//	c := maligo.NewClient("http://localhost:8372", nil)
//	res2, err := c.RunJob(ctx, spec)                 // over the wire
//
// The serving contract is bit-identity: the daemon's response body is
// byte-for-byte the JSON of the in-process result, regardless of
// which tenant submitted, what ran before, or how jobs were batched —
// the server adds routing, caching and admission control, never
// timing. Client maps wire error codes back onto the same typed
// errors (ErrInvalidJob, ErrTenantQuota, ErrUnknownJob,
// ErrBuildFailure, ErrAnalysisFailed), so errors.Is works identically
// on both paths.
//
// Programs are statically analyzed once at compile time and the
// findings cached alongside the binary. The daemon's -analysis policy
// (off, warn, error — overridable per tenant with -tenant-analysis)
// decides whether registrations report diagnostics, and under the
// error policy rejects programs with error-severity findings (races,
// out-of-bounds accesses, divergent barriers) with HTTP 422 and code
// "analysis_failed" before any job runs; responses carry
// X-Malid-Analysis and X-Malid-Severity headers.
// NewServer embeds the service core in another process; cmd/malid-load
// drives a daemon with the nine-benchmark mix and verifies the
// contract under load.
//
// See README.md for usage, DESIGN.md for the architecture and
// EXPERIMENTS.md for paper-versus-measured results.
package maligo
