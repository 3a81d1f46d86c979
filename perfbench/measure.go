package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"maligo/internal/vm"
)

// epoch anchors every host-time reading of the process.
var epoch = now()

// now reads the host clock. Every reading in the benchmark goes
// through here; its monotonic component makes differences immune to
// wall-clock steps.
func now() time.Time {
	return time.Now() // maligo:allow walltime the benchmark measures host time by design
}

// sinceEpoch returns the process-relative host time in seconds.
func sinceEpoch() float64 { return now().Sub(epoch).Seconds() }

// Each workload sets up at least minSetups times and until the
// set-ups add up to setupBudget seconds (at most maxSetups times), so
// a cheap set-up is repeated more often; setup_s is the median.
const (
	minSetups   = 7
	maxSetups   = 25
	setupBudget = 2.0
)

// timeSetup runs setup repeatedly and returns the median duration
// together with the last set-up's state; close releases the state of
// every earlier repeat.
func timeSetup[T any](out *outcome, setup func() (T, error), close func(T)) (T, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < maxSetups && (i < minSetups || sum(times) < setupBudget); i++ {
		if i > 0 {
			close(last)
		}
		t0 := sinceEpoch()
		v, err := setup()
		if err != nil {
			return last, err
		}
		times = append(times, sinceEpoch()-t0)
		last = v
	}
	out.samples["setup_s"] = times
	out.metrics["setup_s"] = median(times)
	return last, nil
}

// runRounds runs short rounds of a workload until the next round
// would overrun the measured phase. Untraced runs repeat untraced
// rounds; traced runs alternate untraced and traced rounds, starting
// untraced, so the two share the host's state and their ratio is the
// tracing overhead.
//
// Rounds are short on purpose. The host's speed dips in bursts of a
// fraction of a second; a long round averages every burst it meets
// into its duration, while the median of many short rounds passes
// over them.
//
// slot names what round i measures (the sweep's benchmark group; 0
// for the serve workloads). The next round's duration is predicted
// from the last round of the same slot and kind; the first round of
// each always runs, so every slot is measured at least once.
//
// round returns the duration of its measured phase, which excludes
// the checking of its outputs; the budget counts measured time only.
//
// It also records the share of the host's CPU time the hypervisor
// stole while the rounds ran, one of the causes of run-to-run noise
// on a shared virtual machine.
func runRounds(opts options, out *outcome, slot func(i int) int, round func(i int, traced bool) (float64, error)) error {
	type kind struct {
		slot   int
		traced bool
	}
	last := map[kind]float64{}
	spent := 0.0
	steal0, total0 := cpuTimes()
	defer func() {
		if steal1, total1 := cpuTimes(); total1 > total0 {
			out.samples["steal_share"] = []float64{float64(steal1-steal0) / float64(total1-total0)}
		}
	}()
	for i := 0; ; i++ {
		k := kind{slot(i), opts.trace && i%2 == 1}
		if prev, seen := last[k]; seen && spent+prev > opts.seconds {
			return nil
		}
		d, err := round(i, k.traced)
		if err != nil {
			return err
		}
		spent += d
		last[k] = d
	}
}

// setLayerMetrics reports every per-layer metric from layers, 0 for
// a layer the workload does not exercise, the tracing overhead (the
// traced over the untraced measure of the same work) and the peak
// resident memory.
func setLayerMetrics(out *outcome, layers map[string]float64, overhead float64) {
	for _, d := range perLayer {
		out.metrics[d.Name] = layers[d.Name]
	}
	out.metrics["trace.overhead_ratio"] = overhead
	out.metrics["host.max_rss_mb"] = maxRSSMB()
}

// medianEach returns, for every key of the maps, the median of its
// values.
func medianEach(ms []map[string]float64) map[string]float64 {
	xs := map[string][]float64{}
	for _, m := range ms {
		for k, v := range m {
			xs[k] = append(xs[k], v)
		}
	}
	med := make(map[string]float64, len(xs))
	for k, v := range xs {
		med[k] = median(v)
	}
	return med
}

// cpuTimes returns the host's stolen and total CPU time in clock
// ticks, from the first line of /proc/stat (zeros where unreadable).
func cpuTimes() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest fields
	// that may follow are already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var inf = math.Inf(1)

// countFinite counts the operations that succeeded.
func countFinite(xs []float64) int {
	n := 0
	for _, x := range xs {
		if !math.IsInf(x, 0) {
			n++
		}
	}
	return n
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (NaN when empty). +Inf samples sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// latencyMetrics sets the percentile metrics (in ms) from latencies
// in seconds, where a failed operation is +Inf. It records how many
// samples lie beyond each tail percentile so the detail record shows
// whether the tail is resolved (at least ten beyond).
func latencyMetrics(out *outcome, lat []float64) {
	out.metrics["p50_ms"] = quantile(lat, 0.50) * 1e3
	out.metrics["p95_ms"] = quantile(lat, 0.95) * 1e3
	out.metrics["p99_ms"] = quantile(lat, 0.99) * 1e3
	n := float64(len(lat))
	out.samples["latency_count"] = []float64{n}
	out.samples["latency_beyond_p95_p99"] = []float64{math.Floor(n * 0.05), math.Floor(n * 0.01)}
}

// hostInfo describes the host and build a result was measured on.
func hostInfo() map[string]any {
	engine := vm.EngineFromEnv()
	engineName := engine.String()
	if engine == vm.EngineAuto {
		engineName = "auto (" + vm.EngineCompiled.String() + ")"
	}
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit(),
		"engine":     engineName,
	}
}

// cpuModel reads the first model name in /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the VCS revision stamped into the binary, or
// "unknown" when it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
