package main

import (
	"sync/atomic"
	"time"
)

// The calibration loop. The shared host this benchmark runs on drifts in
// speed by 10-30% over tens of seconds to minutes, and the simulator's
// throughput drifts with it. A fixed workload shaped like the
// simulator's hot path (map lookups in a table larger than L2, atomic
// adds, small allocations, a byte-code style switch) tracks that drift:
// over 30 s runs on a 2-vCPU Xeon its CPU time correlated with the
// simulator's throughput at r = -0.94. It runs after every round, and
// every host-CPU figure is scaled by calibNominal / its mean CPU time,
// so the benchmark reports CPU time on a host of fixed speed. The loop
// shares no code with the simulator, so a change to the simulator moves
// the scaled figures as much as the raw ones.

// calibNominal is the loop's CPU time on the host the benchmark was
// sized on; scaled figures are in that host's CPU-seconds.
const calibNominal = 8 * time.Millisecond

const (
	calibKeys  = 1 << 17
	calibIters = 60_000
)

var (
	calibTable = func() map[uint64]uint64 {
		m := make(map[uint64]uint64, calibKeys)
		for k := uint64(0); k < calibKeys; k++ {
			m[k] = k
		}
		return m
	}()
	calibSink []byte
	calibAcc  atomic.Int64
)

// calibrate runs the loop once and returns its CPU time and the heap
// allocations it made.
func calibrate() (time.Duration, uint64) {
	var allocs uint64
	c := now()
	x := uint64(88172645463325252)
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x & (calibKeys - 1)
		switch x >> 62 {
		case 0:
			calibTable[k] += x
		case 1:
			calibAcc.Add(int64(calibTable[k]))
		case 2:
			calibSink = make([]byte, 32+x&63)
			allocs++
		default:
			if _, ok := calibTable[k^1]; ok {
				calibAcc.Add(1)
			}
		}
	}
	_, cpu := c.since()
	return cpu, allocs
}
