package bench

import (
	"runtime"
	"testing"

	"k23/internal/interpose/variants"
)

// allocsNoise bounds the run-to-run jitter of the marginal allocation
// count (map growth points and hash seeds move a few allocations across
// the 3000-iteration delta, well under 0.01 per syscall).
const allocsNoise = 0.05

// TestAllocsPerSyscall gates the host cost of kernel entry: the marginal
// heap allocations per iteration of the Table 5 loop (one system call
// each), taken as the MemStats.Mallocs delta between two loop lengths so
// launch and set-up costs cancel. The count is host-independent, so it
// is gated to within allocsNoise; a ceiling may only come down. The one
// allocation left under an interposer is its per-call interpose.Call.
func TestAllocsPerSyscall(t *testing.T) {
	ceilings := []struct {
		variant string
		max     float64
	}{
		{"native", 0},
		{"ptrace", 1},
		{"zpoline-ultra", 1},
		{"lazypoline", 1},
		{"k23-ultra+", 1},
		{"sud", 1},
	}
	for _, c := range ceilings {
		spec, ok := variants.ByName(c.variant)
		if !ok {
			t.Fatalf("unknown variant %s", c.variant)
		}
		w, l, err := microSetup(spec)
		if err != nil {
			t.Fatalf("%s: %v", c.variant, err)
		}
		mallocs := func(n int) float64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := runMicroOnce(w, l, n); err != nil {
				t.Fatalf("%s: %v", c.variant, err)
			}
			runtime.ReadMemStats(&after)
			return float64(after.Mallocs - before.Mallocs)
		}
		m1 := mallocs(microN1)
		m2 := mallocs(microN2)
		per := (m2 - m1) / float64(microN2-microN1)
		t.Logf("%-14s %.3f allocations per syscall (ceiling %g)", c.variant, per, c.max)
		if per > c.max+allocsNoise {
			t.Errorf("%s: %.3f allocations per syscall, ceiling %g", c.variant, per, c.max)
		}
	}
}
