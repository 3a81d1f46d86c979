package mali_test

import (
	"testing"

	"maligo/internal/device/devicetest"
	"maligo/internal/mali"
)

// TestEngineBitIdentity checks that both engine paths (live groups
// and trace replay) give the serial engine's reports, L2 statistics,
// DRAM traffic and race findings.
func TestEngineBitIdentity(t *testing.T) {
	devicetest.CheckBitIdentity(t, func() devicetest.Cached { return mali.New() }, []devicetest.Shape{
		{Name: "one-group", Global: 64, Local: 64},
		{Name: "groups=cores", Global: 256, Local: 64},
		{Name: "groups>cores", Global: 1024, Local: 64},
	})
}

// BenchmarkRunWith times a lone 64-item work-group, which runs live,
// and 64 such groups, whose traces the ordered consumer replays.
func BenchmarkRunWith(b *testing.B) {
	b.Run("1group", func(b *testing.B) { devicetest.BenchRunWith(b, mali.New(), 64, 64) })
	b.Run("64groups", func(b *testing.B) { devicetest.BenchRunWith(b, mali.New(), 64*64, 64) })
}
