package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"

	"maligo/internal/bench"
	"maligo/internal/cl"
	"maligo/internal/cpu"
	"maligo/internal/harness"
	"maligo/internal/mali"
	"maligo/internal/platform"
	"maligo/internal/power"
)

// sweepConfig pins what one sweep round runs.
type sweepConfig struct {
	Scale      float64
	Benchmarks []string
	// Reference maps each cell key to its expected digest; nil skips
	// the reference check (the traced and untraced rounds must still
	// agree with each other).
	Reference map[string]string
}

// sweepScale is the pinned reduced scale of the sweep workload.
const sweepScale = 0.1

//go:embed sweep_reference.json
var sweepReferenceJSON []byte

// sweepReference is the file format of sweep_reference.json.
type sweepReference struct {
	Scale float64           `json:"scale"`
	Cells map[string]string `json:"cells"`
}

// pinnedSweep is the sweep workload's configuration.
func pinnedSweep() sweepConfig {
	var ref sweepReference
	if err := json.Unmarshal(sweepReferenceJSON, &ref); err != nil || ref.Scale != sweepScale {
		// An unreadable reference fails every cell rather than the run,
		// so the result line says the outputs are unchecked.
		ref.Cells = map[string]string{}
	}
	return sweepConfig{Scale: sweepScale, Benchmarks: bench.Names(), Reference: ref.Cells}
}

func cellKey(name string, prec bench.Precision, v bench.Version) string {
	return fmt.Sprintf("%s/%s/%s", name, prec, v)
}

// cellDigest hashes a cell's seed-independent simulated fields. The
// power measurement depends on the meter seed and host time is not
// simulated, so neither takes part. %v prints floats in their
// shortest round-tripping form, so equal digests mean equal bits.
func cellDigest(c *harness.Cell) string {
	h := sha256.New()
	fmt.Fprintf(h, "%t|%v|%t|%q|%+v", c.Supported, c.Seconds, c.FellBack, c.Kernels, c.Activity)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// group is one benchmark at one precision: the unit harness.Run
// gives a fresh context and devices, and one round of the sweep
// workload.
type group struct {
	name string
	prec bench.Precision
}

func (g group) String() string { return g.name + "/" + g.prec.String() }

// groups lists the sweep's groups in harness order.
func (cfg sweepConfig) groups() []group {
	var gs []group
	for _, name := range cfg.Benchmarks {
		for _, prec := range []bench.Precision{bench.F32, bench.F64} {
			gs = append(gs, group{name, prec})
		}
	}
	return gs
}

// keys lists the cells of a group in harness order.
func (g group) keys() []string {
	var keys []string
	for _, v := range bench.Versions() {
		keys = append(keys, cellKey(g.name, g.prec, v))
	}
	return keys
}

// keys lists every cell of the sweep in harness order.
func (cfg sweepConfig) keys() []string {
	var keys []string
	for _, g := range cfg.groups() {
		keys = append(keys, g.keys()...)
	}
	return keys
}

// sweepRound is what one round of either kind produced: each cell's
// digest and, for supported cells, its measured-region host time,
// which is the sweep's per-operation latency.
type sweepRound struct {
	digests map[string]string
	host    map[string]float64
}

func newSweepRound() *sweepRound {
	return &sweepRound{digests: map[string]string{}, host: map[string]float64{}}
}

func (r *sweepRound) add(key string, c *harness.Cell) {
	r.digests[key] = cellDigest(c)
	if c.Supported {
		r.host[key] = c.HostSeconds
	}
}

// check compares a round's digests for the given cells with the
// reference and with the first digest seen of each cell, which it
// records, counting every cell once. It returns each measured cell's
// latency, +Inf for a cell that failed.
func (cfg sweepConfig) check(out *outcome, r *sweepRound, keys []string, first map[string]string, label string) map[string]float64 {
	latency := map[string]float64{}
	for _, k := range keys {
		out.attempted++
		got, ran := r.digests[k]
		lat, measured := r.host[k]
		prev, seen := first[k]
		switch want, ok := cfg.Reference[k]; {
		case !ran:
			out.fail("%s cell %s: not run", label, k)
			lat, measured = inf, true
		case cfg.Reference != nil && (!ok || want != got):
			out.fail("%s cell %s: digest %s, reference %q", label, k, got, want)
			lat, measured = inf, true
		case seen && prev != got:
			out.fail("%s cell %s: digest %s differs from the first round's %s", label, k, got, prev)
			lat, measured = inf, true
		case !seen:
			first[k] = got
		}
		if measured {
			latency[k] = lat
		}
	}
	return latency
}

// runSweep runs the sweep workload. A round is one group; the rounds
// visit every group once per cycle, in an order the seed permutes.
// Traced runs measure each group untraced and then traced. run_s
// adds up each group's median round: the host time of one whole
// sweep, as harness.Run would spend it.
func runSweep(opts options, cfg sweepConfig) (*outcome, error) {
	out := newOutcome()
	if _, err := timeSetup(out, func() (struct{}, error) { return struct{}{}, sweepSetup(cfg) }, func(struct{}) {}); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	gs := cfg.groups()
	var order []int
	slot := func(i int) int {
		if opts.trace {
			i /= 2
		}
		for len(order) <= i {
			order = append(order, newRNG(opts.seed, uint64(len(order)/len(gs))).perm(len(gs))...)
		}
		return order[i]
	}
	var (
		first  = map[string]string{}
		cells  = map[string][]float64{} // per-cell latencies over the rounds
		plain  = make([][]float64, len(gs))
		traced = make([][]float64, len(gs))
		layers = make([][]map[string]float64, len(gs))
	)
	err := runRounds(opts, out, slot, func(i int, isTraced bool) (float64, error) {
		gi := slot(i)
		g := gs[gi]
		var (
			r   *sweepRound
			err error
			lm  map[string]float64
		)
		label := "untraced"
		// Every round starts from a collected heap, so where the
		// collector runs inside a round depends on the round's own
		// allocations rather than on what the rounds before it left.
		runtime.GC()
		t0 := sinceEpoch()
		if isTraced {
			label = "traced"
			r, lm, err = tracedSweepRound(cfg, g, opts.seed, t0)
		} else {
			r, err = plainSweepRound(cfg, g, opts.seed)
		}
		d := sinceEpoch() - t0
		if err != nil {
			// A failed verification aborts harness.Run: every cell of
			// the group counts as failed, with infinite latency.
			out.attempted += len(g.keys())
			out.failN(len(g.keys()), "%s round %d (%s): %v", label, i, g, err)
			if isTraced {
				traced[gi] = append(traced[gi], d)
				return d, nil
			}
			for _, k := range g.keys() {
				cells[k] = append(cells[k], inf)
			}
			plain[gi] = append(plain[gi], d)
			return d, nil
		}
		lat := cfg.check(out, r, g.keys(), first, label)
		if !isTraced {
			for k, v := range lat {
				cells[k] = append(cells[k], v)
			}
			plain[gi] = append(plain[gi], d)
			return d, nil
		}
		if len(layers[gi]) > 0 {
			if c, c0 := simulatedCounts(lm), simulatedCounts(layers[gi][0]); fmt.Sprint(c) != fmt.Sprint(c0) {
				out.fail("traced round %d (%s): simulated counts %v differ from the group's first traced round's %v", i, g, c, c0)
			}
		}
		layers[gi] = append(layers[gi], lm)
		traced[gi] = append(traced[gi], d)
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	groupMedians := func(xs [][]float64) (float64, map[string][]float64) {
		t, raw := 0.0, map[string][]float64{}
		for gi, g := range gs {
			t += median(xs[gi])
			raw[g.String()] = xs[gi]
		}
		return t, raw
	}
	runS, raw := groupMedians(plain)
	out.metrics["run_s"] = runS
	for k, v := range raw {
		out.samples["round_s/"+k] = v
	}
	// An operation is one cell: its latency is the cell's median
	// measured-region host time over the rounds, so the percentiles
	// describe the grid rather than round-to-round noise. A failed
	// round enters as +Inf, so it can only raise a percentile.
	attempted, ok, latency := 0, 0, make([]float64, 0, len(cells))
	for _, k := range cfg.keys() {
		if xs, measured := cells[k]; measured {
			attempted += len(xs)
			ok += countFinite(xs)
			latency = append(latency, median(xs))
		}
	}
	// Cells of one whole sweep that succeed, per second of it.
	out.metrics["req_per_s"] = float64(len(latency)) * float64(ok) / float64(attempted) / runS
	latencyMetrics(out, latency)
	if opts.trace {
		tracedS, raw := groupMedians(traced)
		for k, v := range raw {
			out.samples["traced_round_s/"+k] = v
		}
		setLayerMetrics(out, sweepLayers(layers), tracedS/runS)
	}
	return out, nil
}

// sweepSetup prepares every sweep input once: each benchmark's
// program is built and its workload generated at the pinned scale, on
// a throw-away context. It is the part of a sweep a user waits for
// before the first measured cell.
func sweepSetup(cfg sweepConfig) error {
	soc := platform.Default()
	for _, name := range cfg.Benchmarks {
		b := bench.ByName(name)
		if b == nil {
			return fmt.Errorf("unknown benchmark %q", name)
		}
		for _, prec := range []bench.Precision{bench.F32, bench.F64} {
			ctx := cl.NewContextWith(cl.WithDevices(cpu.NewOn(soc, 1), cpu.NewOn(soc, soc.CPU.Cores), mali.NewOn(soc)))
			prog := ctx.CreateProgramWithSource(b.Source())
			err := prog.Build(prec.BuildOptions())
			if err == nil {
				err = b.Setup(ctx, prec, cfg.Scale)
			}
			ctx.Close()
			if err != nil {
				return fmt.Errorf("%s (%s): %w", name, prec, err)
			}
		}
	}
	return nil
}

// plainSweepRound is one untraced round: the harness exactly as
// maligo.RunExperiments calls it, on one group.
func plainSweepRound(cfg sweepConfig, g group, seed uint64) (*sweepRound, error) {
	res, err := harness.Run(harness.Config{
		Scale:      cfg.Scale,
		Precisions: []bench.Precision{g.prec},
		Benchmarks: []string{g.name},
		Verify:     true,
		MeterSeed:  seed,
	})
	if err != nil {
		return nil, err
	}
	r := newSweepRound()
	for _, v := range bench.Versions() {
		c := res.Cell(g.name, g.prec, v)
		if c == nil {
			return nil, fmt.Errorf("harness returned no cell %s", cellKey(g.name, g.prec, v))
		}
		r.add(cellKey(g.name, g.prec, v), c)
	}
	return r, nil
}

// tracedSweepRound is one traced round. It repeats harness.Run's
// procedure for one group step for step, with spans around each call
// into a layer and wrapped device models. Its digests must equal the
// untraced round's: that proves both that the mirror is faithful and
// that the instrumentation changes no simulated observable.
//
// It returns the group's additive layer quantities (seconds and
// counts); sweepLayers turns them into the per-layer metrics.
func tracedSweepRound(cfg sweepConfig, g group, seed uint64, start float64) (*sweepRound, map[string]float64, error) {
	rec := &recorder{}
	soc := platform.Default()
	meter := power.NewMeterFor(soc, seed, 0)
	r := newSweepRound()
	b := bench.ByName(g.name)
	if b == nil {
		return nil, nil, fmt.Errorf("unknown benchmark %q", g.name)
	}
	cpu1 := &tracedDevice{simDevice: cpu.NewOn(soc, 1), layer: "device.cpu", rec: rec}
	cpu2 := &tracedDevice{simDevice: cpu.NewOn(soc, soc.CPU.Cores), layer: "device.cpu", rec: rec}
	gpu := &tracedDevice{simDevice: mali.NewOn(soc), layer: "device.gpu", rec: rec}
	if err := tracedBenchmark(rec, meter, cfg, b, g.prec, cpu1, cpu2, gpu, r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", g, err)
	}
	end := sinceEpoch()
	rec.add("harness.round", 0, start, end)
	spans := rec.take()
	if err := checkNoOverlap(spans); err != nil {
		return nil, nil, err
	}
	hostSelf, err := selfTimes(spans, "bench.run", "device.gpu", "device.cpu")
	if err != nil {
		return nil, nil, err
	}
	roundSelf, err := selfTimes(spans, "harness.round", "clc.build", "bench.setup", "bench.run", "bench.verify", "power.measure")
	if err != nil {
		return nil, nil, err
	}

	lm := map[string]float64{
		"device.gpu.run_s":       total(spans, "device.gpu"),
		"device.cpu.run_s":       total(spans, "device.cpu"),
		"clc.build_s":            total(spans, "clc.build"),
		"bench.setup_s":          total(spans, "bench.setup"),
		"bench.verify_s":         total(spans, "bench.verify"),
		"power.measure_s":        total(spans, "power.measure"),
		"cl.host_s":              sum(hostSelf),
		"harness.unattributed_s": sum(roundSelf),
		"wall_s":                 end - start,
	}
	g2 := gpu.L2Stats()
	lm["mem.gpu_l2.accesses"] = float64(g2.Accesses)
	lm["mem.gpu_l2.misses"] = float64(g2.Misses)
	for _, d := range []*tracedDevice{cpu1, cpu2, gpu} {
		if d != gpu {
			s := d.L2Stats()
			lm["mem.cpu_l2.accesses"] += float64(s.Accesses)
			lm["mem.cpu_l2.misses"] += float64(s.Misses)
		}
		lm[d.layer+".calls"] += float64(d.calls)
		lm["vm.instrs"] += float64(d.prof.Instrs)
		lm["vm.mem_instrs"] += float64(d.prof.LoadInstrs + d.prof.StoreInstrs)
		lm["vm.work_groups"] += float64(d.prof.WorkGroups)
		lm["mem.dram_bytes"] += float64(d.dram)
	}
	return r, lm, nil
}

// sweepLayers turns the traced rounds of every group into the
// sweep's per-layer metrics. Each additive quantity is its median
// over a group's traced rounds, added up over the groups, so it
// describes one whole sweep the way run_s does; the ratios are taken
// of those sums.
func sweepLayers(groups [][]map[string]float64) map[string]float64 {
	lm := map[string]float64{}
	for _, rounds := range groups {
		for k, v := range medianEach(rounds) {
			lm[k] += v
		}
	}
	dev := lm["device.gpu.run_s"] + lm["device.cpu.run_s"]
	lm["device.ns_per_instr"] = safeDiv(dev, lm["vm.instrs"]) * 1e9
	lm["device.ns_per_mem_instr"] = safeDiv(dev, lm["vm.mem_instrs"]) * 1e9
	lm["mem.gpu_l2.miss_ratio"] = safeDiv(lm["mem.gpu_l2.misses"], lm["mem.gpu_l2.accesses"])
	lm["mem.cpu_l2.miss_ratio"] = safeDiv(lm["mem.cpu_l2.misses"], lm["mem.cpu_l2.accesses"])
	lm["trace.unattributed_share"] = safeDiv(lm["harness.unattributed_s"], lm["wall_s"])
	return lm
}

// tracedBenchmark mirrors the harness's runBenchmark for one
// benchmark and precision.
func tracedBenchmark(rec *recorder, meter *power.Meter, cfg sweepConfig, b bench.Benchmark, prec bench.Precision,
	cpu1, cpu2, gpu *tracedDevice, r *sweepRound) error {
	ctx := cl.NewContextWith(cl.WithDevices(cpu1, cpu2, gpu))
	defer ctx.Close()
	prog := ctx.CreateProgramWithSource(b.Source())
	if err := rec.timed("clc.build", func() error { return prog.Build(prec.BuildOptions()) }); err != nil {
		return err
	}
	if err := rec.timed("bench.setup", func() error { return b.Setup(ctx, prec, cfg.Scale) }); err != nil {
		return err
	}
	queues := map[bench.Version]*cl.CommandQueue{
		bench.Serial:    ctx.CreateCommandQueue(cpu1),
		bench.OpenMP:    ctx.CreateCommandQueue(cpu2),
		bench.OpenCL:    ctx.CreateCommandQueue(gpu),
		bench.OpenCLOpt: ctx.CreateCommandQueue(gpu),
	}
	for _, v := range bench.Versions() {
		cell := &harness.Cell{Bench: b.Name(), Precision: prec, Version: v, Supported: true}
		key := cellKey(b.Name(), prec, v)
		if ok, reason := b.Supported(prec, v); !ok {
			cell.Supported, cell.Reason = false, reason
			r.add(key, cell)
			continue
		}
		q := queues[v]
		if err := rec.timed("bench.run", func() error { _, err := b.Run(q, prog, v); return err }); err != nil {
			return fmt.Errorf("%s warm-up: %w", v, err)
		}
		q.ResetEvents()
		var info *bench.RunInfo
		t0 := sinceEpoch()
		err := rec.timed("bench.run", func() error {
			var err error
			info, err = b.Run(q, prog, v)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", v, err)
		}
		cell.HostSeconds = sinceEpoch() - t0
		cell.FellBack = info.FellBack
		cell.Kernels = info.Kernels
		act, err := harness.ActivityFromEvents(q, v)
		if err != nil {
			return err
		}
		cell.Seconds = act.Seconds
		cell.Activity = act
		_ = rec.timed("power.measure", func() error { cell.Power = meter.Measure(act); return nil })
		cell.Timeline = q.Timeline()
		cell.Metrics = ctx.Metrics().Snapshot()
		if err := rec.timed("bench.verify", func() error { return b.Verify(prec) }); err != nil {
			return fmt.Errorf("%s verification: %w", v, err)
		}
		r.add(key, cell)
	}
	return nil
}

// simulatedCounts selects the layer quantities that are simulated
// counts: identical in every traced round of a group.
func simulatedCounts(lm map[string]float64) map[string]float64 {
	c := map[string]float64{}
	for _, k := range []string{"device.gpu.calls", "device.cpu.calls", "vm.instrs", "vm.mem_instrs",
		"vm.work_groups", "mem.gpu_l2.accesses", "mem.gpu_l2.misses", "mem.cpu_l2.accesses",
		"mem.cpu_l2.misses", "mem.dram_bytes"} {
		c[k] = lm[k]
	}
	return c
}

// safeDiv returns num / den, or 0 when den is 0.
func safeDiv(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
