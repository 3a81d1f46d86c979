package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"maligo/internal/clc"
	"maligo/internal/clc/analysis"
	"maligo/internal/clc/ir"
	"maligo/internal/job"
	"maligo/internal/service"
)

// serveConfig pins one serve workload.
type serveConfig struct {
	// cold gives every request a program the daemon has never seen;
	// otherwise every request hits the program cache.
	cold bool
	// passes is how many times a round posts each of the nine mix
	// jobs for each tenant.
	passes int
	// clients is the number of closed-loop client goroutines, each
	// with its own connection.
	clients int
	// wrap, when set, interposes on the daemon's handler; tests use it
	// to serve corrupted bodies and check that the benchmark notices.
	wrap func(http.Handler) http.Handler
}

const serveTenants = 2

// pinnedServe is the configuration of serve-hot or serve-cold. A
// round lasts about a tenth of a second (hot) or a third of a second
// (cold) on a 2-CPU host, so a run holds hundreds and reports their
// median.
func pinnedServe(cold bool) serveConfig {
	if cold {
		return serveConfig{cold: true, passes: 1, clients: 2}
	}
	return serveConfig{passes: 2, clients: 2}
}

// clientHeader carries the client goroutine's index to the traced
// handler, which files its span on that client's track. malid ignores
// unknown headers.
const clientHeader = "X-Perfbench-Client"

// server is one in-process malid on a loopback listener.
type server struct {
	srv     *service.Server
	hs      *http.Server
	base    string
	client  *http.Client
	served  chan struct{} // closed when Serve returns
	rec     *recorder     // nil on untraced runs
	tracing atomic.Bool
}

// startServer stands up malid at its defaults and warms it.
func startServer(cfg serveConfig, specs []*job.Spec, traced bool) (*server, error) {
	srv, err := service.New(service.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{
		srv:    srv,
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.clients}, Timeout: time.Minute},
		served: make(chan struct{}),
	}
	var h http.Handler = srv.Handler()
	if traced {
		s.rec = &recorder{}
		h = s.traceHandler(h)
	}
	if cfg.wrap != nil {
		h = cfg.wrap(h)
	}
	s.hs = &http.Server{Handler: h}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	if err := s.warm(specs); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warm registers every mix program, then runs each mix job once per
// tenant so the job runtime's context pool is filled before timing.
func (s *server) warm(specs []*job.Spec) error {
	for _, spec := range specs {
		body, err := json.Marshal(map[string]string{"source": spec.Source, "options": spec.Options})
		if err != nil {
			return err
		}
		if _, _, err := s.post("/v1/programs", body, 0); err != nil {
			return fmt.Errorf("register %s: %w", spec.Kernel, err)
		}
	}
	for t := 0; t < serveTenants; t++ {
		for _, spec := range specs {
			j := *spec
			j.Tenant = fmt.Sprintf("tenant-%d", t)
			body, err := json.Marshal(&j)
			if err != nil {
				return err
			}
			if _, _, err := s.post("/v1/jobs", body, 0); err != nil {
				return fmt.Errorf("warm-up job %s: %w", spec.Kernel, err)
			}
		}
	}
	return nil
}

// close stops the listener, waits for Serve to return and drains the
// daemon.
func (s *server) close() {
	_ = s.hs.Close()
	<-s.served
	s.client.CloseIdleConnections()
	s.srv.Close()
}

// traceHandler records a service.handler span around every request of
// a traced round.
func (s *server) traceHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.tracing.Load() {
			next.ServeHTTP(w, r)
			return
		}
		track, _ := strconv.Atoi(r.Header.Get(clientHeader))
		t0 := sinceEpoch()
		next.ServeHTTP(w, r)
		s.rec.add("service.handler", track, t0, sinceEpoch())
	})
}

// post sends one request and returns the body and the cache
// disposition. Any status but 200 is an error.
func (s *server) post(path string, body []byte, track int) ([]byte, string, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if s.rec != nil {
		req.Header.Set(clientHeader, strconv.Itoa(track))
	}
	res, err := s.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, "", err
	}
	if res.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("HTTP %d: %s", res.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, res.Header.Get("X-Malid-Cache"), nil
}

// request is one job of a round's stream.
type request struct {
	mix  int       // index into the mix specs
	spec *job.Spec // the job as posted
	body []byte    // its JSON encoding
}

// reply is what the client saw for one request.
type reply struct {
	latency float64 // seconds; +Inf when the request failed
	cache   string
	sum     [32]byte // sha256 of the body
	err     error
}

// coldKernel is appended to a mix program to make a never-seen one:
// the salt changes the content address and the constant changes the
// IR. The kernel is analysis-clean, so the warn gate admits it.
const coldKernel = `
__kernel void perfbench_gen_%d(__global float *out, int n) {
	int i = get_global_id(0);
	if (i < n) out[i] = out[i] * 0.5f + %d.0f;
}
`

// stream generates round r's requests from the seed: every mix job
// once per tenant per pass, in a seed-permuted order. Cold streams
// give each request a program no earlier request carried.
func (cfg serveConfig) stream(mix []*job.Spec, seed uint64, r int) ([]request, error) {
	rng := newRNG(seed, uint64(r))
	n := len(mix) * serveTenants * cfg.passes
	reqs := make([]request, n)
	for i := range reqs {
		spec := *mix[i%len(mix)]
		spec.Tenant = fmt.Sprintf("tenant-%d", i/len(mix)%serveTenants)
		reqs[i] = request{mix: i % len(mix), spec: &spec}
	}
	for i := n - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		reqs[i], reqs[j] = reqs[j], reqs[i]
	}
	for i := range reqs {
		if cfg.cold {
			id := r*n + i
			reqs[i].spec.Source += fmt.Sprintf(coldKernel, id, 1+rng.next()%1000003)
		}
		b, err := json.Marshal(reqs[i].spec)
		if err != nil {
			return nil, err
		}
		reqs[i].body = b
	}
	return reqs, nil
}

// drive posts a round's stream from cfg.clients closed-loop clients,
// each sending its next request only once the previous reply is in.
func (s *server) drive(cfg serveConfig, reqs []request, traced bool) []reply {
	replies := make([]reply, len(reqs))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t0 := sinceEpoch()
				body, cache, err := s.post("/v1/jobs", reqs[i].body, c)
				t1 := sinceEpoch()
				if traced {
					s.rec.add("http.client", c, t0, t1)
				}
				rp := reply{latency: t1 - t0, cache: cache, err: err}
				if err == nil {
					rp.sum = sha256.Sum256(body)
				}
				replies[i] = rp
			}
		}(c)
	}
	wg.Wait()
	return replies
}

// verifier holds the in-process reference every served body must
// match byte for byte: json.Marshal of job.Runtime's result plus the
// encoder's trailing newline.
type verifier struct {
	rt *job.Runtime
	// hot maps mix index to the expected body digest and compiled
	// program (hot workloads only).
	hot   [][32]byte
	progs []*ir.Program
}

func newVerifier(cfg serveConfig, mix []*job.Spec) (*verifier, error) {
	v := &verifier{rt: job.NewRuntime(job.Config{})}
	if cfg.cold {
		return v, nil
	}
	for _, spec := range mix {
		art, err := job.Compile(spec.Source, spec.Options)
		if err != nil {
			v.rt.Close()
			return nil, err
		}
		sum, err := v.run(spec, art.Prog)
		if err != nil {
			v.rt.Close()
			return nil, err
		}
		v.hot = append(v.hot, sum)
		v.progs = append(v.progs, art.Prog)
	}
	return v, nil
}

// run executes one job in-process and returns its body digest.
func (v *verifier) run(spec *job.Spec, prog *ir.Program) ([32]byte, error) {
	res, err := v.rt.RunCompiled(spec, prog)
	if err != nil {
		return [32]byte{}, err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(append(b, '\n')), nil
}

// expect returns the digest a request's body must have. On a traced
// round (rec set) it records the in-process layers the daemon's
// handler also runs: compile and analysis of a cold program, and the
// job itself.
func (v *verifier) expect(cfg serveConfig, req request, rec *recorder) ([32]byte, error) {
	if !cfg.cold && rec == nil {
		return v.hot[req.mix], nil
	}
	var prog *ir.Program
	if cfg.cold {
		var art *clc.Artifacts
		err := rec.timed("clc.compile", func() error {
			var err error
			art, err = job.Compile(req.spec.Source, req.spec.Options)
			return err
		})
		if err != nil {
			return [32]byte{}, err
		}
		if rec != nil {
			_ = rec.timed("analysis.analyze", func() error { analysis.Analyze(art); return nil })
		}
		prog = art.Prog
	} else {
		prog = v.progs[req.mix]
	}
	var sum [32]byte
	err := rec.timed("job.run", func() error {
		var err error
		sum, err = v.run(req.spec, prog)
		return err
	})
	return sum, err
}

// runServe runs serve-hot or serve-cold.
func runServe(opts options, cfg serveConfig) (*outcome, error) {
	out := newOutcome()
	mix := job.MixSpecs()
	ver, err := newVerifier(cfg, mix)
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	defer ver.rt.Close()
	s, err := timeSetup(out, func() (*server, error) { return startServer(cfg, mix, opts.trace) }, (*server).close)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer s.close()

	wantCache := "hit"
	if cfg.cold {
		wantCache = "miss"
	}
	var (
		latency       []float64
		plain, traced []float64
		layers        []map[string]float64
		okay          int
	)
	err = runRounds(opts, out, func(int) int { return 0 }, func(r int, isTraced bool) (float64, error) {
		reqs, err := cfg.stream(mix, opts.seed, r)
		if err != nil {
			return 0, err
		}
		s.tracing.Store(isTraced)
		t0 := sinceEpoch()
		replies := s.drive(cfg, reqs, isTraced)
		d := sinceEpoch() - t0
		s.tracing.Store(false)

		var rec *recorder
		if isTraced {
			rec = s.rec
		}
		for i, rp := range replies {
			out.attempted++
			lat := rp.latency
			if err := checkReply(cfg, ver, reqs[i], rp, wantCache, rec); err != nil {
				out.fail("round %d request %d (%s): %v", r, i, reqs[i].spec.Kernel, err)
				lat = inf
			}
			if !isTraced {
				latency = append(latency, lat)
			}
		}
		if !isTraced {
			plain = append(plain, d)
			okay += countFinite(latency[len(latency)-len(reqs):])
			return d, nil
		}
		traced = append(traced, d)
		lm, err := serveLayers(cfg, s.rec.take(), d)
		if err != nil {
			out.fail("traced round %d: %v", r, err)
		} else {
			layers = append(layers, lm)
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	out.samples["round_s"] = plain
	out.metrics["run_s"] = median(plain)
	// Requests of one round that succeed, per second of it.
	out.metrics["req_per_s"] = float64(okay) / float64(len(plain)) / median(plain)
	latencyMetrics(out, latency)
	if opts.trace {
		out.samples["traced_round_s"] = traced
		setLayerMetrics(out, medianEach(layers), median(traced)/median(plain))
		snap := s.srv.Metrics().Snapshot()
		jobs := snap.Counter("malid.jobs.done") + snap.Counter("malid.jobs.failed")
		out.metrics["progcache.hit_ratio"] = snap.Gauge("malid.cache.hit_rate")
		out.metrics["progcache.entries"] = snap.Gauge("malid.cache.entries")
		out.metrics["service.batched_ratio"] = safeDiv(float64(snap.Counter("malid.jobs.batched")), float64(jobs))
		out.metrics["service.rejected_quota"] = float64(snap.Counter("malid.jobs.rejected_quota"))
		out.metrics["service.jobs_failed"] = float64(snap.Counter("malid.jobs.failed"))
	}
	return out, nil
}

// checkReply applies the serve workloads' correctness gates to one
// reply: it succeeded, the cache did what the workload is for, and
// the body is byte-identical to the in-process run.
func checkReply(cfg serveConfig, ver *verifier, req request, rp reply, wantCache string, rec *recorder) error {
	if rp.err != nil {
		return rp.err
	}
	if rp.cache != wantCache {
		return fmt.Errorf("program cache %s, want %s", rp.cache, wantCache)
	}
	want, err := ver.expect(cfg, req, rec)
	if err != nil {
		return fmt.Errorf("in-process run: %w", err)
	}
	if want != rp.sum {
		return fmt.Errorf("served body differs from the in-process result")
	}
	return nil
}

// serveLayers derives a traced round's per-layer metrics, in mean
// seconds per request.
func serveLayers(cfg serveConfig, spans []span, wall float64) (map[string]float64, error) {
	if err := checkNoOverlap(spans); err != nil {
		return nil, err
	}
	transport, err := selfTimes(spans, "http.client", "service.handler")
	if err != nil {
		return nil, err
	}
	handler := mean(spans, "service.handler")
	run := mean(spans, "job.run")
	compile := mean(spans, "clc.compile")
	analyze := mean(spans, "analysis.analyze")
	return map[string]float64{
		"service.handler_s":  handler,
		"http.transport_s":   sum(transport) / float64(len(transport)),
		"job.run_s":          run,
		"clc.compile_s":      compile,
		"analysis.analyze_s": analyze,
		// What the handler spends beyond running the job (and, for a
		// cold program, compiling and analysing it): admission, the
		// tenant scheduler, batching and JSON.
		"service.overhead_s":       handler - run - compile - analyze,
		"trace.unattributed_share": 1 - total(spans, "http.client")/(float64(cfg.clients)*wall),
	}, nil
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng { return &rng{s: seed*0x9e3779b97f4a7c15 ^ stream} }

// perm returns a permutation of 0..n-1 (Fisher-Yates).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
