// Command perfbench is the repository's end-to-end benchmark: the
// benchmark of record for every host-time performance claim. It runs
// one workload per process and prints, as the last line of standard
// output, one JSON object with the keys correct, attempted, failed
// and metrics:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists):
//
//   - sweep: the paper sweep, harness.Run over every benchmark,
//     precision and version at a pinned reduced scale.
//   - serve-hot: a closed loop of two clients against an in-process
//     malid whose program cache serves every request.
//   - serve-cold: the same loop, but every request carries a program
//     the daemon has never seen.
//
// With --trace 0 the run measures the end-to-end metrics with no
// instrumentation attached. With --trace 1 it alternates untraced and
// traced rounds of the same workload and reports the per-layer
// metrics the spans of the traced rounds give. A line before the
// result records the host, the seed and every raw sample.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// metricDef names one reported metric with its unit and direction.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the metrics of an untraced run (--trace 0). Every
// workload reports each of them; on sweep an operation is one
// measured cell, on the serve workloads one request.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p95_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
}

// perLayer lists the metrics of a traced run (--trace 1). A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	// Device layer: time inside RunWith of the wrapped mali.GPU and
	// cpu.CPU models, which covers vm execution, trace record and
	// replay, the mem cache models and the timing models.
	{"device.gpu.run_s", "s", "lower"},
	{"device.gpu.calls", "count", "lower"},
	{"device.cpu.run_s", "s", "lower"},
	{"device.cpu.calls", "count", "lower"},
	{"vm.instrs", "count", "lower"},
	{"vm.mem_instrs", "count", "lower"},
	{"vm.work_groups", "count", "lower"},
	{"device.ns_per_instr", "ns", "lower"},
	{"device.ns_per_mem_instr", "ns", "lower"},
	// Simulated memory-system counts: a change that only speeds up
	// the simulator must leave them exactly equal.
	{"mem.gpu_l2.accesses", "count", "lower"},
	{"mem.gpu_l2.miss_ratio", "ratio", "lower"},
	{"mem.cpu_l2.accesses", "count", "lower"},
	{"mem.cpu_l2.miss_ratio", "ratio", "lower"},
	{"mem.dram_bytes", "bytes", "lower"},
	// Host layers of the sweep, in seconds per whole sweep.
	{"clc.build_s", "s", "lower"},
	{"bench.setup_s", "s", "lower"},
	{"bench.verify_s", "s", "lower"},
	{"power.measure_s", "s", "lower"},
	{"cl.host_s", "s", "lower"},
	{"harness.unattributed_s", "s", "lower"},
	// Service layers, in mean seconds per request.
	{"service.handler_s", "s", "lower"},
	{"http.transport_s", "s", "lower"},
	{"job.run_s", "s", "lower"},
	{"service.overhead_s", "s", "lower"},
	{"progcache.hit_ratio", "ratio", "higher"},
	{"progcache.entries", "count", "higher"},
	{"service.batched_ratio", "ratio", "higher"},
	{"service.rejected_quota", "count", "lower"},
	{"service.jobs_failed", "count", "lower"},
	// Compile path of never-seen programs, in mean seconds per program.
	{"clc.compile_s", "s", "lower"},
	{"analysis.analyze_s", "s", "lower"},
	// Peak resident memory of the whole traced run. It is not an
	// end-to-end metric: malid's heap grows with every job served, so
	// the peak tracks how many jobs the host's speed fitted into the
	// run, and the garbage collector's timing moves it further.
	{"host.max_rss_mb", "MB", "lower"},
	// The instrumentation's own cost and coverage.
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.unattributed_share", "ratio", "lower"},
}

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// outcome is what a workload run measured.
type outcome struct {
	attempted int
	failed    int
	// problems describes the first correctness failures.
	problems []string
	metrics  map[string]float64
	// samples holds the raw values behind the metrics (per-round
	// times, set-up repeats) for the detail record.
	samples map[string][]float64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string][]float64{}}
}

// fail records one failed operation and, for the first few, why.
func (o *outcome) fail(format string, args ...any) { o.failN(1, format, args...) }

// failN records n failed operations with one cause.
func (o *outcome) failN(n int, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"sweep":      func(o options) (*outcome, error) { return runSweep(o, pinnedSweep()) },
	"serve-hot":  func(o options) (*outcome, error) { return runServe(o, pinnedServe(false)) },
	"serve-cold": func(o options) (*outcome, error) { return runServe(o, pinnedServe(true)) },
}

func main() {
	var (
		opts  options
		trace int
	)
	flag.StringVar(&opts.workload, "workload", "", "workload to run: sweep, serve-hot or serve-cold")
	flag.Uint64Var(&opts.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.Float64Var(&opts.seconds, "seconds", 35, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
	flag.Parse()
	run, ok := workloads[opts.workload]
	if !ok || flag.NArg() != 0 || (trace != 0 && trace != 1) || opts.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload sweep|serve-hot|serve-cold --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	opts.trace = trace == 1
	out, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opts.workload, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, opts, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the metrics the run mode reports. A metric the
// workload did not produce is an error: every run reports the full
// set.
func buildResult(opts options, out *outcome) (result, error) {
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			return res, fmt.Errorf("workload produced no %s", d.Name)
		}
		if math.IsNaN(v) {
			return res, fmt.Errorf("%s is not a number", d.Name)
		}
		if math.IsInf(v, 0) {
			// A failed request counts as +Inf latency; JSON has no
			// infinity, so report the largest finite value instead.
			v = math.Copysign(math.MaxFloat64, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// report writes the detail record and then the result line.
func report(w io.Writer, opts options, out *outcome) error {
	res, err := buildResult(opts, out)
	if err != nil {
		return err
	}
	detail := map[string]any{
		"workload": opts.workload,
		"seed":     opts.seed,
		"seconds":  opts.seconds,
		"trace":    opts.trace,
		"host":     hostInfo(),
		"ok":       out.attempted - out.failed,
		"problems": out.problems,
		"samples":  out.samples,
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"detail": detail}); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(res)
}
