package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite sweep_reference.json from the current simulator")

// tinySweep is a sweep small enough for a unit test; it has no
// reference, so only the traced and untraced rounds are compared.
func tinySweep() sweepConfig {
	return sweepConfig{Scale: 0.01, Benchmarks: []string{"vecop", "red", "amcd"}}
}

func tinyServe(cold bool) serveConfig {
	return serveConfig{cold: cold, passes: 1, clients: 2}
}

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode checks that BENCHMARK.json declares
// exactly the workloads and metrics the code reports, with the same
// units and directions.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not run", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %d", names, len(workloads))
	}
	for _, c := range []struct {
		file, code []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("BENCHMARK.json has %d metrics, code %d", len(c.file), len(c.code))
			continue
		}
		for i := range c.code {
			if c.file[i] != c.code[i] {
				t.Errorf("metric %d: BENCHMARK.json %+v, code %+v", i, c.file[i], c.code[i])
			}
		}
	}
}

// runTiny runs one workload at test size and returns its result line.
func runTiny(t *testing.T, name string, trace bool, run func(options) (*outcome, error)) result {
	t.Helper()
	opts := options{workload: name, seed: 7, seconds: 0.001, trace: trace}
	out, err := run(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report(&buf, opts, out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%q",
			name, trace, res.Correct, res.Attempted, res.Failed, out.problems)
	}
	return res
}

// TestTinyWorkloadsEmitEveryMetric smokes each workload at test size,
// untraced and traced, and checks that the result line carries every
// metric BENCHMARK.json names, with its unit.
func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	tiny := map[string]func(options) (*outcome, error){
		"sweep":      func(o options) (*outcome, error) { return runSweep(o, tinySweep()) },
		"serve-hot":  func(o options) (*outcome, error) { return runServe(o, tinyServe(false)) },
		"serve-cold": func(o options) (*outcome, error) { return runServe(o, tinyServe(true)) },
	}
	for name, run := range tiny {
		for _, trace := range []bool{false, true} {
			res := runTiny(t, name, trace, run)
			defs := bf.EndToEnd
			if trace {
				defs = bf.PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.Name, m, d.Unit)
				}
			}
			if !trace {
				for _, d := range defs {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

// TestCorruptedBodyCaught serves bodies with one byte flipped; every
// request must count as failed.
func TestCorruptedBodyCaught(t *testing.T) {
	cfg := tinyServe(false)
	cfg.wrap = func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			next.ServeHTTP(&flipWriter{ResponseWriter: w, jobs: r.URL.Path == "/v1/jobs"}, r)
		})
	}
	out, err := runServe(options{workload: "serve-hot", seed: 3, seconds: 0.001}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.attempted == 0 || out.failed != out.attempted {
		t.Fatalf("attempted %d, failed %d: a corrupted body must fail its request", out.attempted, out.failed)
	}
	if p := out.metrics["p50_ms"]; p < 1e300 {
		t.Errorf("p50 %v ms: failed requests must enter the latency sample as +Inf", p)
	}
}

// flipWriter flips the first byte of every job response body.
type flipWriter struct {
	http.ResponseWriter
	jobs    bool
	flipped bool
}

func (f *flipWriter) Write(p []byte) (int, error) {
	if f.jobs && !f.flipped && len(p) > 0 {
		f.flipped = true
		q := append([]byte(nil), p...)
		q[0] ^= 1
		return f.ResponseWriter.Write(q)
	}
	return f.ResponseWriter.Write(p)
}

// TestWrongSweepDigestCaught runs the sweep against a reference that
// disagrees on one cell; that cell must fail.
func TestWrongSweepDigestCaught(t *testing.T) {
	cfg := tinySweep()
	r, err := plainSweep(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Reference = map[string]string{}
	for k, v := range r.digests {
		cfg.Reference[k] = v
	}
	cfg.Reference["vecop/single/OpenCL"] = "0000000000000000"
	out, err := runSweep(options{workload: "sweep", seed: 1, seconds: 0.001}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 1 {
		t.Fatalf("failed %d, want exactly the one wrong cell; problems %q", out.failed, out.problems)
	}
}

// plainSweep runs every group of the sweep once, untraced.
func plainSweep(cfg sweepConfig, seed uint64) (*sweepRound, error) {
	all := newSweepRound()
	for _, g := range cfg.groups() {
		r, err := plainSweepRound(cfg, g, seed)
		if err != nil {
			return nil, err
		}
		for k, v := range r.digests {
			all.digests[k] = v
		}
		for k, v := range r.host {
			all.host[k] = v
		}
	}
	return all, nil
}

// TestSweepReference checks the pinned sweep's digests against
// sweep_reference.json; -update rewrites the file.
func TestSweepReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pinned sweep")
	}
	cfg := pinnedSweep()
	r, err := plainSweep(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		data, err := json.MarshalIndent(sweepReference{Scale: sweepScale, Cells: r.digests}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("sweep_reference.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	out := newOutcome()
	cfg.check(out, r, cfg.keys(), map[string]string{}, "untraced")
	if out.failed != 0 || out.attempted != 9*2*4 {
		t.Fatalf("attempted %d failed %d: %q", out.attempted, out.failed, out.problems)
	}
}

// TestSpanInvariants checks that the invariant checks reject
// overlapping spans and negative self time.
func TestSpanInvariants(t *testing.T) {
	ok := []span{
		{layer: "bench.run", start: 0, end: 4},
		{layer: "device.gpu", start: 1, end: 2},
		{layer: "device.gpu", start: 2, end: 3},
		{layer: "bench.run", track: 1, start: 1, end: 5},
	}
	if err := checkNoOverlap(ok); err != nil {
		t.Errorf("valid spans: %v", err)
	}
	self, err := selfTimes(ok, "bench.run", "device.gpu")
	if err != nil || len(self) != 2 || self[0] != 2 || self[1] != 4 {
		t.Errorf("self times %v, %v; want [2 4]", self, err)
	}
	overlap := []span{{layer: "device.gpu", start: 0, end: 2}, {layer: "device.gpu", start: 1, end: 3}}
	if checkNoOverlap(overlap) == nil {
		t.Error("overlapping spans of one layer and track were accepted")
	}
	straddle := []span{{layer: "bench.run", start: 0, end: 2}, {layer: "device.gpu", start: 1, end: 3}}
	if _, err := selfTimes(straddle, "bench.run", "device.gpu"); err == nil {
		t.Error("a child span straddling its parent was accepted")
	}
}
