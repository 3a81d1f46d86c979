package cpu_test

import (
	"testing"

	"maligo/internal/cpu"
	"maligo/internal/device/devicetest"
)

// TestEngineBitIdentity checks that every engine path (live groups,
// full-trace replay and the L1-filtered replay of launches with no
// more groups than cores) gives the serial engine's reports, L2
// statistics, DRAM traffic and race findings.
func TestEngineBitIdentity(t *testing.T) {
	devicetest.CheckBitIdentity(t, func() devicetest.Cached { return cpu.New(2) }, []devicetest.Shape{
		{Name: "one-group", Global: 4, Local: 4},
		{Name: "groups=cores", Global: 8, Local: 4},
		{Name: "groups>cores", Global: 32, Local: 4},
	})
}

// BenchmarkRunWith times the Serial version's one-group loop and the
// OpenMP version's two-group chunked loop, both over an array that
// misses the L1.
func BenchmarkRunWith(b *testing.B) {
	b.Run("serial-1group", func(b *testing.B) { devicetest.BenchRunWith(b, cpu.New(1), 1, 1) })
	b.Run("omp-2groups", func(b *testing.B) { devicetest.BenchRunWith(b, cpu.New(2), 2, 1) })
}
