package bench

import (
	"runtime"
	"testing"

	"k23/internal/apps"
	"k23/internal/interpose/variants"
	"k23/internal/rr"
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

// TestAllocsPerRecordedSyscall gates the recorder's host cost the same
// way: the marginal heap allocations per recorded system call of a
// native redis recording, taken as the MemStats.Mallocs delta between a
// 200- and a 1000-request run so boot, launch and checkpoint costs
// cancel. The interval is past the run's end, so both runs take the
// same two checkpoints, and both compile the same 14 superblocks (a
// 40-request run compiles 13, and the extra block's allocations would
// not cancel). Hashing an event, storing it and keeping its syscall
// arguments must not allocate: what is left is the amortized growth of
// the event stream and the argument slab, inside allocsNoise.
func TestAllocsPerRecordedSyscall(t *testing.T) {
	record := func(requests int) (mallocs float64, syscalls uint64) {
		spec := rr.RunSpec{
			Name: "redis", Path: apps.RedisPath, Argv: []string{"redis-server", "1"},
			Server: true, Requests: requests,
			Seed: 11, CheckpointEvery: 1 << 40,
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := rr.Record(spec, rr.Hooks{})
		if err != nil {
			t.Fatalf("Record: %v", err)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs), s.Rec.Final.Syscalls
	}
	record(200) // warm-up: package-level tables and caches
	m1, n1 := record(200)
	m2, n2 := record(1000)
	if n2 <= n1 {
		t.Fatalf("1000 requests made %d syscalls, 200 made %d", n2, n1)
	}
	per := (m2 - m1) / float64(n2-n1)
	t.Logf("%.3f allocations per recorded syscall (%d vs %d syscalls, ceiling 0)", per, n2, n1)
	if per > allocsNoise {
		t.Errorf("%.3f allocations per recorded syscall, ceiling 0", per)
	}
}
