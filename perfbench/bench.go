package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"k23/internal/cpu"
	"k23/internal/probe"
)

// bench runs one workload's ops and books what they did.
type bench struct {
	rng *rng
	// decks deal each configuration's input sizes; see draw.
	decks map[string][]int
	pins  pinTable
	// cpi is the cycles/iter column of the Table 5 golden.
	cpi map[string]uint64
	// tr is nil in untraced passes.
	tr     *tracer
	m      *meter
	probes *probe.Compiled
	// inputs, when non-nil, lists every generated input in order (the
	// self-test compares them across seeds).
	inputs []string
	// held keeps an op's worlds and sessions alive for the retained-heap
	// pass; nil outside it.
	held []any
	// largest deals every configuration its largest input, leaving the
	// decks alone: the warm-up and retained-heap passes do the same work
	// whatever the seed.
	largest bool
	// capture, when non-nil, collects guest totals instead of checking
	// them against the pins (pin mode).
	capture capture
}

// meter accumulates one pass.
type meter struct {
	attempted, failed int
	// wrong counts ops whose output failed a check.
	wrong    int
	failures map[string]int

	wall, cpu time.Duration
	// calib is the calibration loop's mean CPU time over the pass.
	calib   time.Duration
	mallocs uint64
	gcCPU   float64
	// insts and syscalls are the guest work the pass completed: live and
	// recorded runs, replays, retraces and seek re-execution (insts only).
	insts, syscalls uint64

	// Live and recorded guest runs, Launch to exit.
	runs         int
	runMs        []float64
	runCPU       time.Duration
	runSyscalls  uint64
	runInsts     uint64
	mechCPU      map[string]time.Duration
	mechSyscalls map[string]uint64
	interposed   uint64
	dcache       cpu.DecodeCacheStats
	jit          cpu.JITStats

	setup                        map[string][]float64
	launchMs, spawnMs, offlineMs []float64

	recordings                                   int
	rrRecordCPU, rrReplayCPU, rrRetraceCPU       time.Duration
	rrRecordInsts, rrReplayInsts, rrRetraceInsts uint64
	checkpoints, pagesCopied, pagesShared        uint64
	seekMs                                       []float64
	seekReexec                                   uint64
}

// speed converts this pass's host CPU time to reference CPU time: the
// ratio of the calibration loop's nominal to its measured CPU time.
func (m *meter) speed() float64 {
	if m.calib == 0 {
		return 1
	}
	return float64(calibNominal) / float64(m.calib)
}

func newMeter() *meter {
	return &meter{
		failures: map[string]int{}, setup: map[string][]float64{},
		mechCPU: map[string]time.Duration{}, mechSyscalls: map[string]uint64{},
	}
}

// mismatch is a wrong guest output, as opposed to an error the simulator
// reported.
type mismatch struct{ msg string }

func (m mismatch) Error() string { return m.msg }

func wrongf(format string, args ...any) error { return mismatch{fmt.Sprintf(format, args...)} }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (b *bench) noteInput(format string, args ...any) {
	if b.inputs != nil {
		b.inputs = append(b.inputs, fmt.Sprintf(format, args...))
	}
}

// draw deals cfg's next input-size index in [0, n). Each configuration
// gets every index once, in a seeded order, before any repeats, so a
// run's input mix barely depends on the seed and its percentiles do not
// move with it.
func (b *bench) draw(cfg string, n int) int {
	if b.largest {
		return n - 1
	}
	d := b.decks[cfg]
	if len(d) == 0 {
		for i := n - 1; i >= 0; i-- {
			d = append(d, i)
		}
		for i := len(d) - 1; i > 0; i-- {
			j := int(b.rng.next() % uint64(i+1))
			d[i], d[j] = d[j], d[i]
		}
	}
	b.decks[cfg] = d[1:]
	return d[0]
}

func (b *bench) hold(objs ...any) {
	if b.held != nil {
		b.held = append(b.held, objs...)
	}
}

// call runs fn as one call into a simulator module, recorded as a span
// when tracing.
func (b *bench) call(name string, fn func() error) error {
	if b.tr != nil {
		b.tr.begin(name)
		defer b.tr.end()
	}
	return fn()
}

// attempt runs one op. An error, a panic or a wrong output counts it as
// failed, with its message kept; the caller goes on with a fresh world
// or session.
func (b *bench) attempt(label string, fn func() error) (ok bool) {
	b.m.attempted++
	defer func() {
		if r := recover(); r != nil {
			b.fail(label, fmt.Errorf("panic: %v", r))
			ok = false
		}
	}()
	if b.tr != nil {
		b.tr.op++
		b.tr.begin("op " + label)
		defer b.tr.end()
	}
	if err := fn(); err != nil {
		b.fail(label, err)
		return false
	}
	return true
}

func (b *bench) fail(label string, err error) {
	b.m.failed++
	var mm mismatch
	if errors.As(err, &mm) {
		b.m.wrong++
	}
	b.m.failures[label+": "+err.Error()]++
}

// finishRun checks a finished guest run against its pinned totals and
// books it. x is the run's input size (iterations, requests or
// operations); rr runs pass 0.
func (b *bench) finishRun(r *liveRun, key string, x uint64) error {
	var insts, cycles uint64
	var dc cpu.DecodeCacheStats
	var jit cpu.JITStats
	for _, t := range r.p.Threads {
		insts += t.Core.Insts
		cycles += t.Cycles()
		dc.Add(t.Core.DecodeStats)
		jit.Add(t.Core.JITStats)
	}
	if r.rec && r.steps != insts {
		return wrongf("%s: recording counted %d steps, threads retired %d", key, r.steps, insts)
	}
	pin, pinned := b.pins[key]
	want := pin.at(x)
	// A live untraced run has no event hook, so its syscall count is the
	// pinned one; the traced pass counts them and checks the pin.
	syscalls := want.Syscalls
	switch {
	case r.rec:
		syscalls = r.syscalls
	case r.counted != nil:
		syscalls = *r.counted
	}
	got := totals{Insts: insts, Cycles: cycles, Syscalls: syscalls}
	switch {
	case b.capture != nil:
		if b.capture[key] == nil {
			b.capture[key] = map[uint64]totals{}
		}
		b.capture[key][x] = got
	case !pinned:
		return fmt.Errorf("%s: no pinned totals", key)
	case got != want:
		return wrongf("%s x=%d: guest totals %+v, pinned %+v", key, x, got, want)
	}
	if cpi, ok := b.cpi[r.mech]; ok && strings.HasPrefix(key, "syscall-storm/") && b.capture == nil && pin.Cycles[1] != cpi {
		return wrongf("%s: %d cycles/iter, table5.golden has %d", key, pin.Cycles[1], cpi)
	}

	m := b.m
	m.runs++
	m.runMs = append(m.runMs, ms(r.cpu))
	m.runCPU += r.cpu
	m.runInsts += insts
	m.runSyscalls += syscalls
	m.mechCPU[r.mech] += r.cpu
	m.mechSyscalls[r.mech] += syscalls
	m.interposed += r.l.Stats(r.p).Total()
	m.dcache.Add(dc)
	m.jit.Add(jit)
	m.insts += insts
	m.syscalls += syscalls
	return nil
}

// round runs every configuration of w once, in a seeded order.
func (b *bench) round(w *workload) {
	for _, cfg := range b.rng.perm(w.configs) {
		w.op(b, cfg)
	}
}

// measure runs one timed pass of length d: whole rounds until d has
// elapsed or, for a workload dealt in decks, the whole decks that take
// about d on the reference host.
func (b *bench) measure(w *workload, d time.Duration) *meter {
	if w.deckRounds == 0 {
		return b.pass(w, d, 1)
	}
	decks := max(1, int(math.Round(float64(d)/float64(w.deckTime))))
	return b.pass(w, 0, decks*w.deckRounds)
}

// warmUp runs one untimed round at every configuration's largest input.
func (b *bench) warmUp(w *workload) *meter {
	b.largest = true
	defer func() { b.largest = false }()
	return b.pass(w, 0, 1)
}

// pass runs whole rounds until d has elapsed (at least minRounds),
// each followed by the calibration loop, and returns what they did.
func (b *bench) pass(w *workload, d time.Duration, minRounds int) *meter {
	b.m = newMeter()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	c := now()
	deadline := time.Now().Add(d)
	var calib time.Duration
	var calibAllocs uint64
	calibs := 0
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		b.round(w)
		var cpuT time.Duration
		var allocs uint64
		if b.tr != nil {
			// The label keeps the calibration loop out of the module profile.
			pprof.Do(context.Background(), pprof.Labels("perfbench", "calibration"), func(context.Context) {
				cpuT, allocs = calibrate()
			})
		} else {
			cpuT, allocs = calibrate()
		}
		calib += cpuT
		calibAllocs += allocs
		calibs++
	}
	b.m.wall, b.m.cpu = c.since()
	b.m.cpu -= calib
	b.m.calib = calib / time.Duration(calibs)
	runtime.ReadMemStats(&ms1)
	b.m.mallocs = ms1.Mallocs - ms0.Mallocs - calibAllocs
	b.m.gcCPU = gcCPUSeconds() - gc0
	return b.m
}

// retainedMB runs one op of each configuration while holding its worlds
// and sessions, and returns the largest growth of the live heap (after a
// full GC) over the heap before the op.
func (b *bench) retainedMB(w *workload) float64 {
	b.m = newMeter()
	b.largest = true
	defer func() { b.largest = false }()
	var peak uint64
	for _, cfg := range w.configs {
		before := liveHeap()
		b.held = []any{}
		w.op(b, cfg)
		if after := liveHeap(); after > before && after-before > peak {
			peak = after - before
		}
		runtime.KeepAlive(b.held)
		b.held = nil
	}
	return float64(peak) / (1 << 20)
}

func liveHeap() uint64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.HeapAlloc
}
