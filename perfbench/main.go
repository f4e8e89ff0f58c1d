// Command perfbench is the k23 simulator's host-speed benchmark. It
// drives the simulator through its public APIs from one goroutine, times
// every call into a module from outside, checks every guest output, and
// prints one JSON result line:
//
//	perfbench --workload <syscall-storm|server-mix|record-replay> --seed <n> --seconds <s> --trace <0|1>
//	perfbench --selftest
//	perfbench --pin > pins.json
//
// With --trace 0 it reports the end-to-end metrics of an untraced pass.
// With --trace 1 it runs an untraced and a traced pass (spans around
// every module call plus a CPU profile) for half the time each, and
// reports the per-layer metrics. A human-readable report goes to
// standard error. README.md lists every metric and what moves it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"k23/internal/obsv"
	"k23/internal/probe"
)

// outDir holds span dumps and profiles, relative to the repository root.
const outDir = ".bench_build/perfbench"

type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees; every workload
// reports all of them.
var endToEnd = []metricSpec{
	{"syscalls_per_cpu_s", "1/s"},
	{"guest_minst_per_cpu_s", "Minst/s"},
	{"run_p50_ms", "ms"},
	{"run_p90_ms", "ms"},
	{"setup_s", "s"},
	{"allocs_per_syscall", "count"},
	{"retained_mb", "MB"},
}

// mechMetric names a mechanism in a metric name ('+' is not allowed).
func mechMetric(mech string) string { return strings.ReplaceAll(mech, "+", "-plus") }

// perLayerMechs are the mechanisms any workload runs.
var perLayerMechs = []string{"native", "ptrace", "zpoline-default", "zpoline-ultra", "lazypoline", "k23-ultra+", "sud"}

func perLayer() []metricSpec {
	out := []metricSpec{
		{"kernel.run_cpu_s", "s"},
		{"kernel.ns_per_syscall", "ns"},
	}
	for _, m := range perLayerMechs {
		out = append(out, metricSpec{"interpose." + mechMetric(m) + ".ns_per_syscall", "ns"})
	}
	out = append(out, []metricSpec{
		{"interpose.interposed_per_syscall", "ratio"},
		{"interpose.launch_ms", "ms"},
		{"loader.spawn_ms", "ms"},
		{"core.offline_ms", "ms"},
		{"cpu.dcache.hit_rate", "ratio"},
		{"cpu.dcache.misses_per_kinst", "count"},
		{"cpu.dcache.invalidations_per_kinst", "count"},
		{"cpu.jit.coverage", "ratio"},
		{"cpu.jit.entries_per_kinst", "count"},
		{"cpu.jit.bails_per_kinst", "count"},
		{"cpu.jit.blocks", "count"},
		{"rr.record_cpu_s", "s"},
		{"rr.replay_cpu_s", "s"},
		{"rr.record_minst_per_cpu_s", "Minst/s"},
		{"rr.replay_minst_per_cpu_s", "Minst/s"},
		{"rr.retrace_minst_per_cpu_s", "Minst/s"},
		{"rr.checkpoints", "count"},
		{"rr.pages_copied", "count"},
		{"rr.pages_shared", "count"},
		{"rr.seek_reexec_kinst", "kinst"},
		{"rr.seek_p50_ms", "ms"},
		{"rr.seek_p90_ms", "ms"},
		{"obsv.retrace_overhead", "ratio"},
		{"go.allocs_per_kinst", "count"},
		{"go.gc_cpu_frac", "ratio"},
		{"host.calib_ms", "ms"},
	}...)
	for _, m := range profileModules {
		out = append(out, metricSpec{m + ".self_share", "ratio"})
	}
	return append(out, metricSpec{"trace.overhead", "ratio"}, metricSpec{"failed_ops_frac", "ratio"})
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "syscall-storm, server-mix or record-replay")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	selftest := flag.Bool("selftest", false, "check that the benchmark's exact counters repeat and its checks fire")
	pinMode := flag.Bool("pin", false, "measure every configuration and print the pin table")
	flag.Parse()

	// The simulator runs on one goroutine. With one P the Go runtime's
	// GC work runs on the same thread too, so the process CPU time that
	// normalises every metric is not inflated by a second vCPU another
	// tenant of a shared host may be contending for.
	runtime.GOMAXPROCS(1)
	printHost()
	cpi, err := loadCPI()
	if err != nil {
		fatal(err)
	}
	switch {
	case *pinMode:
		err = writePins(cpi)
	case *selftest:
		err = runSelftest(cpi)
	default:
		w, ok := workloadByName(*workloadName)
		if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
			fmt.Fprintln(os.Stderr, "usage: perfbench --workload <syscall-storm|server-mix|record-replay> --seed <n> --seconds <s> --trace <0|1>")
			os.Exit(2)
		}
		err = runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, cpi)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printHost prints what a reader needs to tell a slower host from a
// regression.
func printHost() {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	fmt.Fprintf(os.Stderr, "host: cpu=%q nproc=%d GOMAXPROCS=%d GOGC=%s go=%s\n",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, runtime.Version())
}

func compileProbe() (*probe.Compiled, error) { return obsv.CompileProbes(rrProbe) }

func newBench(seed uint64, cpi map[string]uint64) (*bench, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	probes, err := compileProbe()
	if err != nil {
		return nil, err
	}
	return &bench{rng: &rng{s: seed}, decks: map[string][]int{}, pins: pins, cpi: cpi, probes: probes, m: newMeter()}, nil
}

// runWorkload warms up with one untimed round, measures, and prints the
// report and the result line.
func runWorkload(w *workload, seed uint64, d time.Duration, traced bool, cpi map[string]uint64) error {
	b, err := newBench(seed, cpi)
	if err != nil {
		return err
	}
	warm := b.warmUp(w)
	if traced {
		d /= 2
	}
	plain := b.measure(w, d)
	meters := []*meter{warm, plain}
	var tracedM *meter
	var tr *tracer
	var prof bytes.Buffer
	if traced {
		tr = newTracer()
		b.tr = tr
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		tracedM = b.measure(w, d)
		pprof.StopCPUProfile()
		b.tr = nil
		meters = append(meters, tracedM)
		if err := dumpTrace(tr, w.name, seed, prof.Bytes()); err != nil {
			return err
		}
	}
	retained := b.retainedMB(w)
	meters = append(meters, b.m)

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	failures := map[string]int{}
	for _, m := range meters {
		res.Attempted += m.attempted
		res.Failed += m.failed
		if m.wrong > 0 {
			res.Correct = false
		}
		for k, v := range m.failures {
			failures[k] += v
		}
	}
	e2e := endToEndValues(plain, retained)
	fmt.Fprintf(os.Stderr, "workload %s seed %d: %d ops in %.1fs wall, %.1fs cpu (%d guest runs); "+
		"calibration %.3fms, host CPU times scaled by %.4f to the %v reference\n",
		w.name, seed, plain.attempted, plain.wall.Seconds(), plain.cpu.Seconds(), plain.runs,
		ms(plain.calib), plain.speed(), calibNominal)
	printMetrics("end-to-end", endToEnd, e2e)
	specs := endToEnd
	values := e2e
	if traced {
		values = perLayerValues(plain, tracedM, prof.Bytes())
		printMetrics("per-layer", perLayer(), values)
		printSpans(tr)
		specs = perLayer()
	}
	fmt.Fprintf(os.Stderr, "ops: %d attempted, %d failed, failed_ops_frac %.4f, outputs correct: %v\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), res.Correct)
	printFailures(failures)
	if traced {
		values["failed_ops_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	}
	for _, s := range specs {
		res.Metrics[s.name] = metricValue{values[s.name], s.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// printFailures prints failure messages grouped by their shape (digits
// masked), each group with its count and first message.
func printFailures(failures map[string]int) {
	count, example := map[string]int{}, map[string]string{}
	for _, msg := range sortedKeys(failures) {
		shape := strings.Map(func(r rune) rune {
			if r >= '0' && r <= '9' {
				return '#'
			}
			return r
		}, msg)
		count[shape] += failures[msg]
		if _, ok := example[shape]; !ok {
			example[shape] = msg
		}
	}
	for _, shape := range sortedKeys(count) {
		fmt.Fprintf(os.Stderr, "  failed x%d: %s\n", count[shape], example[shape])
	}
}

func printMetrics(title string, specs []metricSpec, v map[string]float64) {
	fmt.Fprintf(os.Stderr, "%s:\n", title)
	for _, s := range specs {
		if _, ok := v[s.name]; ok {
			fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", s.name, v[s.name], s.unit)
		}
	}
}

func endToEndValues(m *meter, retainedMB float64) map[string]float64 {
	s := m.speed()
	cpuS := m.cpu.Seconds() * s
	var setup float64
	for _, xs := range m.setup {
		setup += median(xs)
	}
	return map[string]float64{
		"syscalls_per_cpu_s":    ratio(float64(m.syscalls), cpuS),
		"guest_minst_per_cpu_s": ratio(float64(m.insts)/1e6, cpuS),
		"run_p50_ms":            quantile(m.runMs, 0.5) * s,
		"run_p90_ms":            quantile(m.runMs, 0.9) * s,
		"setup_s":               setup * s,
		"allocs_per_syscall":    ratio(float64(m.mallocs), float64(m.syscalls)),
		"retained_mb":           retainedMB,
	}
}

// perLayerValues takes timings from the untraced pass and profile
// shares from the traced one. Host CPU times are scaled to the
// calibration loop's reference speed, like the end-to-end ones.
func perLayerValues(m, traced *meter, prof []byte) map[string]float64 {
	s := m.speed()
	sec := func(d time.Duration) float64 { return d.Seconds() * s }
	kinst := float64(m.runInsts) / 1000
	v := map[string]float64{
		"kernel.run_cpu_s":                   sec(m.runCPU),
		"kernel.ns_per_syscall":              ratio(sec(m.runCPU)*1e9, float64(m.runSyscalls)),
		"interpose.interposed_per_syscall":   ratio(float64(m.interposed), float64(m.runSyscalls)),
		"interpose.launch_ms":                median(m.launchMs) * s,
		"loader.spawn_ms":                    median(m.spawnMs) * s,
		"core.offline_ms":                    median(m.offlineMs) * s,
		"cpu.dcache.hit_rate":                m.dcache.HitRate(),
		"cpu.dcache.misses_per_kinst":        ratio(float64(m.dcache.Misses), kinst),
		"cpu.dcache.invalidations_per_kinst": ratio(float64(m.dcache.Invalidations), kinst),
		"cpu.jit.coverage":                   m.jit.Coverage(m.runInsts),
		"cpu.jit.entries_per_kinst":          ratio(float64(m.jit.Entries), kinst),
		"cpu.jit.bails_per_kinst":            ratio(float64(m.jit.Bails), kinst),
		"cpu.jit.blocks":                     ratio(float64(m.jit.Blocks), float64(m.runs)),
		"rr.record_cpu_s":                    sec(m.rrRecordCPU),
		"rr.replay_cpu_s":                    sec(m.rrReplayCPU),
		"rr.record_minst_per_cpu_s":          ratio(float64(m.rrRecordInsts)/1e6, sec(m.rrRecordCPU)),
		"rr.replay_minst_per_cpu_s":          ratio(float64(m.rrReplayInsts)/1e6, sec(m.rrReplayCPU)),
		"rr.retrace_minst_per_cpu_s":         ratio(float64(m.rrRetraceInsts)/1e6, sec(m.rrRetraceCPU)),
		"rr.checkpoints":                     ratio(float64(m.checkpoints), float64(m.recordings)),
		"rr.pages_copied":                    ratio(float64(m.pagesCopied), float64(m.recordings)),
		"rr.pages_shared":                    ratio(float64(m.pagesShared), float64(m.recordings)),
		"rr.seek_reexec_kinst":               ratio(float64(m.seekReexec)/1000, float64(len(m.seekMs))),
		"rr.seek_p50_ms":                     quantile(m.seekMs, 0.5) * s,
		"rr.seek_p90_ms":                     quantile(m.seekMs, 0.9) * s,
		"go.allocs_per_kinst":                ratio(float64(m.mallocs), float64(m.insts)/1000),
		"go.gc_cpu_frac":                     ratio(m.gcCPU, m.cpu.Seconds()),
		"host.calib_ms":                      ms(m.calib),
	}
	for _, mech := range perLayerMechs {
		v["interpose."+mechMetric(mech)+".ns_per_syscall"] = ratio(sec(m.mechCPU[mech])*1e9, float64(m.mechSyscalls[mech]))
	}
	if m.rrRetraceInsts > 0 && m.rrReplayInsts > 0 {
		v["obsv.retrace_overhead"] = ratio(float64(m.rrRetraceCPU)/float64(m.rrRetraceInsts),
			float64(m.rrReplayCPU)/float64(m.rrReplayInsts)) - 1
	}
	plainRate := ratio(float64(m.insts), sec(m.cpu))
	tracedRate := ratio(float64(traced.insts), traced.cpu.Seconds()*traced.speed())
	if tracedRate > 0 {
		v["trace.overhead"] = plainRate/tracedRate - 1
	}
	shares, samples, err := profileShares(prof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "profile:", err)
	}
	for _, mod := range profileModules {
		v[mod+".self_share"] = shares[mod]
	}
	fmt.Fprintf(os.Stderr, "profile (%d samples), self time by module:\n", samples)
	for _, mod := range sortedKeys(shares) {
		fmt.Fprintf(os.Stderr, "  %-12s %6.2f%%\n", mod, 100*shares[mod])
	}
	return v
}

// printSpans prints each span name's self time in the traced pass.
func printSpans(tr *tracer) {
	self, total := tr.selfTimes()
	fmt.Fprintf(os.Stderr, "spans (%d), self time of %.3fs traced:\n", len(tr.spans), total.Seconds())
	for _, name := range sortedKeys(self) {
		fmt.Fprintf(os.Stderr, "  %-28s %10.3fs %6.2f%%\n", name, self[name].Seconds(), 100*ratio(float64(self[name]), float64(total)))
	}
}

// dumpTrace writes the traced pass's spans and CPU profile under outDir.
func dumpTrace(tr *tracer, workload string, seed uint64, prof []byte) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := os.WriteFile(base+".pprof", prof, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %s.spans.jsonl, %s.pprof\n", base, base)
	return tr.write(base + ".spans.jsonl")
}

// gcCPUSeconds is the runtime's estimate of CPU time spent on GC.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
