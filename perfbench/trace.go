package main

import (
	"fmt"
	"sort"
	"sync"

	"maligo/internal/device"
	"maligo/internal/mem"
	"maligo/internal/vm"
)

// span is one timed call into a layer, in process-relative seconds.
// Track separates concurrent callers (one per client goroutine), so
// spans of one layer on one track must never overlap.
type span struct {
	layer      string
	track      int
	start, end float64
}

func (s span) dur() float64 { return s.end - s.start }

// recorder collects spans in memory; the traced round reads them when
// it ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span. A nil recorder records nothing.
func (r *recorder) add(layer string, track int, start, end float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{layer: layer, track: track, start: start, end: end})
	r.mu.Unlock()
}

// timed runs fn inside a span of layer on track 0, the track of
// every sequential caller.
func (r *recorder) timed(layer string, fn func() error) error {
	t0 := sinceEpoch()
	err := fn()
	r.add(layer, 0, t0, sinceEpoch())
	return err
}

// take returns the recorded spans sorted by start and clears the
// recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	s := r.spans
	r.spans = nil
	r.mu.Unlock()
	sort.SliceStable(s, func(i, j int) bool { return s[i].start < s[j].start })
	return s
}

// mean returns the mean duration of the spans of layer (0 when there
// are none).
func mean(spans []span, layer string) float64 {
	n := 0
	for _, s := range spans {
		if s.layer == layer {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total(spans, layer) / float64(n)
}

// total sums the durations of every span of layer.
func total(spans []span, layer string) float64 {
	t := 0.0
	for _, s := range spans {
		if s.layer == layer {
			t += s.dur()
		}
	}
	return t
}

// checkNoOverlap verifies that spans of one layer on one track never
// overlap: a layer cannot be busy twice at once for one caller.
func checkNoOverlap(spans []span) error {
	type key struct {
		layer string
		track int
	}
	last := map[key]span{}
	for _, s := range spans { // sorted by start
		if s.end < s.start {
			return fmt.Errorf("span %s on track %d ends before it starts", s.layer, s.track)
		}
		k := key{s.layer, s.track}
		if p, ok := last[k]; ok && s.start < p.end {
			return fmt.Errorf("spans of %s overlap on track %d: [%.6f,%.6f] and [%.6f,%.6f]",
				s.layer, s.track, p.start, p.end, s.start, s.end)
		}
		last[k] = s
	}
	return nil
}

// selfTimes returns the self time of every span of the parent layer:
// its duration minus the spans of the child layers on the same track
// that it contains. A child that straddles a parent's boundary, or a
// negative self time, is an error.
func selfTimes(spans []span, parent string, children ...string) ([]float64, error) {
	isChild := map[string]bool{}
	for _, c := range children {
		isChild[c] = true
	}
	var out []float64
	for _, p := range spans {
		if p.layer != parent {
			continue
		}
		self := p.dur()
		for _, c := range spans {
			if !isChild[c.layer] || c.track != p.track || c.end <= p.start || c.start >= p.end {
				continue
			}
			if c.start < p.start || c.end > p.end {
				return nil, fmt.Errorf("%s span straddles its %s span on track %d", c.layer, parent, p.track)
			}
			self -= c.dur()
		}
		if self < 0 {
			return nil, fmt.Errorf("%s span on track %d has negative self time %.9fs", parent, p.track, self)
		}
		out = append(out, self)
	}
	return out, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// simDevice is what the traced sweep needs of a device model: the
// cl.Device surface, the cancellable runner the parallel engine uses,
// and the L2 statistics.
type simDevice interface {
	device.Device
	device.ContextRunner
	L2Stats() mem.CacheStats
}

// tracedDevice wraps a mali.GPU or cpu.CPU, recording a span around
// every NDRange it runs and summing the reports' simulated counts.
// It implements device.ContextRunner, so the context keeps the
// parallel engine; every other call is forwarded untouched.
type tracedDevice struct {
	simDevice
	layer string
	rec   *recorder

	mu    sync.Mutex
	calls int
	prof  vm.Profile
	dram  uint64
}

func (d *tracedDevice) Run(ndr *device.NDRange, m vm.GlobalMemory) (*device.Report, error) {
	return d.record(func() (*device.Report, error) { return d.simDevice.Run(ndr, m) })
}

func (d *tracedDevice) RunWith(rc device.RunConfig, ndr *device.NDRange, m vm.GlobalMemory) (*device.Report, error) {
	return d.record(func() (*device.Report, error) { return d.simDevice.RunWith(rc, ndr, m) })
}

func (d *tracedDevice) record(run func() (*device.Report, error)) (*device.Report, error) {
	t0 := sinceEpoch()
	rep, err := run()
	d.rec.add(d.layer, 0, t0, sinceEpoch())
	d.mu.Lock()
	defer d.mu.Unlock()
	d.calls++
	if rep != nil {
		d.prof.Add(&rep.Profile)
		d.dram += rep.DRAMBytes
	}
	return rep, err
}
