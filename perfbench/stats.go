package main

import (
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow returns the process's consumed CPU time in nanoseconds (user +
// system, every thread, so the Go runtime's GC work is included). Every
// metric is normalised by it rather than by wall time: on a shared host
// the wall clock also counts time other tenants held the CPU.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// clock pairs a wall and a CPU reading.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func now() clock { return clock{time.Now(), cpuNow()} }

// since returns the wall and CPU time elapsed from c.
func (c clock) since() (wall, cpu time.Duration) {
	return time.Since(c.wall), cpuNow() - c.cpu
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rng is a splitmix64 stream: the benchmark derives every generated
// input from it, so one seed always yields the same inputs.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// intn returns a value in [lo, hi].
func (r *rng) intn(lo, hi int) int { return lo + int(r.next()%uint64(hi-lo+1)) }

// perm returns xs in a seeded order.
func (r *rng) perm(xs []string) []string {
	out := append([]string(nil), xs...)
	for i := len(out) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}
