// Package devicetest holds what the device models' tests and
// benchmarks share: a flat test memory, a chunked streaming kernel,
// the engine bit-identity table and the observed RunWith benchmark.
package devicetest

import (
	"fmt"
	"reflect"
	"testing"

	"maligo/internal/cl"
	"maligo/internal/clc"
	"maligo/internal/clc/ir"
	"maligo/internal/device"
	"maligo/internal/mem"
	"maligo/internal/vm"
)

// Mem is a GlobalMemory over one little-endian byte slice; concurrent
// work-groups touch disjoint ranges, so plain stores are safe.
type Mem []byte

// LoadBits implements vm.GlobalMemory.
func (m Mem) LoadBits(space int, off int64, size int) (uint64, error) {
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(m[off+int64(i)])
	}
	return v, nil
}

// StoreBits implements vm.GlobalMemory.
func (m Mem) StoreBits(space int, off int64, size int, bits uint64) error {
	for i := 0; i < size; i++ {
		m[off+int64(i)] = byte(bits >> (8 * uint(i)))
	}
	return nil
}

// AtomicRMW implements vm.GlobalMemory.
func (m Mem) AtomicRMW(space int, off int64, size int, fn func(uint64) uint64) (uint64, error) {
	old, _ := m.LoadBits(space, off, size)
	return old, m.StoreBits(space, off, size, fn(old))
}

// chunkSrc streams a chunk of p per work-item (the CPU versions'
// OpenMP static schedule), then every work-item of a group stores to
// the same out slot: an intra-group race whenever the group has more
// than one work-item.
const chunkSrc = `
__kernel void work(__global float* p, __global float* out, const uint n) {
    size_t t  = get_global_id(0);
    size_t nt = get_global_size(0);
    uint chunk = (uint)((n + nt - 1) / nt);
    uint lo = (uint)t * chunk;
    uint hi = min(lo + chunk, n);
    float acc = 0.0f;
    for (uint i = lo; i < hi; i++) {
        acc += p[i];
        p[i] = acc;
    }
    out[get_group_id(0)] = acc;
}`

// Cached is a device model with a shared L2.
type Cached interface {
	device.Device
	L2Stats() mem.CacheStats
}

// Shape is one NDRange shape of the bit-identity table.
type Shape struct {
	Name          string
	Global, Local int
}

// run is everything one configuration's run observes.
type run struct {
	reports []device.Report
	l2      mem.CacheStats
	races   [][]vm.DataRace
	data    []byte
}

// runChunk launches the chunk kernel twice (cold, then warm caches)
// on dev through the OpenCL runtime.
func runChunk(t *testing.T, dev Cached, sh Shape, workers int, race bool) run {
	t.Helper()
	const n = 1 << 14
	ctx := cl.NewContextWith(cl.WithDevices(dev), cl.WithWorkers(workers))
	defer ctx.Close()
	prog := ctx.CreateProgramWithSource(chunkSrc)
	if err := prog.Build(""); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("work")
	if err != nil {
		t.Fatal(err)
	}
	init := make([]byte, n*4)
	for i := range init {
		init[i] = byte(i * 7)
	}
	p, err := ctx.CreateBuffer(cl.MemReadWrite|cl.MemCopyHostPtr, n*4, init)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.CreateBuffer(cl.MemReadWrite|cl.MemAllocHostPtr, int64(sh.Global/sh.Local*4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgBuffer(0, p); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgBuffer(1, out); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgInt(2, n); err != nil {
		t.Fatal(err)
	}
	q := ctx.CreateCommandQueue(dev)
	q.SetRaceCheck(race)
	var r run
	for i := 0; i < 2; i++ {
		ev, err := q.EnqueueNDRangeKernel(k, 1, []int{sh.Global}, []int{sh.Local})
		if err != nil {
			t.Fatal(err)
		}
		r.reports = append(r.reports, *ev.Report)
		if race {
			r.races = append(r.races, ev.RaceCheck.Dynamic)
		}
	}
	r.l2 = dev.L2Stats()
	for _, b := range []*cl.Buffer{p, out} {
		raw, err := b.Bytes(0, b.Size())
		if err != nil {
			t.Fatal(err)
		}
		r.data = append(r.data, raw...)
	}
	return r
}

// CheckBitIdentity runs a racy chunked kernel on a fresh device from
// newDev for every shape, at 1, 2 and 4 workers, with the race check
// off and on. Every run must match the serial run's reports, L2
// statistics, DRAM traffic and memory image, and every race-checked
// run must report the serial race-checked run's findings. Shapes
// should use groups of more than one work-item, so the race check has
// something to find.
func CheckBitIdentity(t *testing.T, newDev func() Cached, shapes []Shape) {
	t.Helper()
	for _, sh := range shapes {
		ref := runChunk(t, newDev(), sh, 1, false)
		raceRef := runChunk(t, newDev(), sh, 1, true)
		if len(raceRef.races[0]) == 0 {
			t.Fatalf("%s: the race check found nothing in a racy kernel", sh.Name)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, race := range []bool{false, true} {
				name := fmt.Sprintf("%s/workers=%d/race=%t", sh.Name, workers, race)
				got := runChunk(t, newDev(), sh, workers, race)
				if !reflect.DeepEqual(got.reports, ref.reports) {
					t.Errorf("%s: reports differ\n got  %+v\n want %+v", name, got.reports, ref.reports)
				}
				if got.l2 != ref.l2 {
					t.Errorf("%s: L2Stats %+v, want %+v", name, got.l2, ref.l2)
				}
				if string(got.data) != string(ref.data) {
					t.Errorf("%s: buffer contents differ", name)
				}
				if race && !reflect.DeepEqual(got.races, raceRef.races) {
					t.Errorf("%s: race findings %v, want %v", name, got.races, raceRef.races)
				}
			}
		}
	}
}

// BenchRunWith times whole enqueues of the chunk kernel over a 256 KB
// array through dev's RunWith, with the device's cache models
// attached the way every real run executes, on a pool of
// runtime.NumCPU() workers. It reports the same per-instruction costs
// as the end-to-end benchmark's device.ns_per_instr and
// device.ns_per_mem_instr.
func BenchRunWith(b *testing.B, dev device.ContextRunner, global, local int) {
	const n = 1 << 16
	prog, err := clc.Compile("chunk.cl", chunkSrc, "")
	if err != nil {
		b.Fatal(err)
	}
	k := prog.Kernel("work")
	pool := device.NewPool(0)
	defer pool.Close()
	rc := device.RunConfig{Pool: pool}
	gmem := make(Mem, (n+global/local)*4)
	var prof vm.Profile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ndr := &device.NDRange{
			Kernel:  k,
			WorkDim: 1,
			Global:  [3]int{global, 1, 1},
			Local:   [3]int{local, 1, 1},
			Args: []vm.ArgValue{
				{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
				{Bits: ir.EncodeAddr(ir.SpaceGlobal, n*4)},
				{Bits: n},
			},
		}
		rep, err := dev.RunWith(rc, ndr, gmem)
		if err != nil {
			b.Fatal(err)
		}
		prof.Add(&rep.Profile)
	}
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(prof.Instrs), "ns/instr")
	b.ReportMetric(ns/float64(prof.LoadInstrs+prof.StoreInstrs), "ns/mem_instr")
}
