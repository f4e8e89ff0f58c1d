// Package fleet is the sharded multi-machine executor: it runs N
// independent simulated machines (interpose.World instances) across a
// bounded pool of host worker goroutines, with per-machine deterministic
// seeds, per-machine statistics, and context-based cancellation so one
// wedged guest cannot stall the pool.
//
// The package's correctness contract is the no-shared-state invariant:
// two Worlds never alias mutable state, so running machines concurrently
// is race-free by construction and — because each machine is itself a
// deterministic single-goroutine simulation — the observable result of
// every machine (step-trace hash, kernel event stream, exit status, VFS
// tree hash) is identical regardless of the worker count. The fleet
// determinism tests and `go test -race ./...` enforce both halves.
package fleet

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"k23/internal/apps"
	"k23/internal/core"
	"k23/internal/cpu"
	"k23/internal/cpu/difftest"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/obsv"
	"k23/internal/probe"
	"k23/internal/rr"
	"k23/internal/sfip"
)

// Machine describes one simulated machine: a program to boot and the
// seed that individualizes the machine deterministically.
type Machine struct {
	// Name identifies the machine in reports (unique names recommended).
	Name string
	// Seed individualizes the machine: it derives the kernel's initial
	// virtual clock (shifting gettimeofday/getrandom streams) and the
	// injected request payload for server workloads. The same seed always
	// produces the same machine.
	Seed uint64
	// Path and Argv name the program to boot.
	Path string
	Argv []string
	Env  []string
	// Mechanism, when non-empty, boots the machine under the named
	// interposer variant (variants.ByName) instead of natively, running
	// the variant's offline phase on the same machine first when it
	// needs a log. Per-machine SFIP policies (Options.SfipPolicies) only
	// bite on interposed machines: native machines never issue
	// trap-origin syscalls.
	Mechanism string
	// Server marks a workload driven by an injected client connection.
	Server bool
	// Requests is the number of requests per injected connection
	// (servers only).
	Requests int
	// MaxInsts bounds the run; 0 means DefaultMaxInsts.
	MaxInsts uint64
	// Setup, if non-nil, replaces the default world preparation
	// (apps.RegisterAll + apps.SetupFS). It must be self-contained: it
	// may not capture mutable state shared with any other machine.
	Setup func(w *interpose.World) error
}

// DefaultMaxInsts is the per-machine instruction budget when
// Machine.MaxInsts is zero.
const DefaultMaxInsts = 500_000_000

// ctxCheckInterval is how many instructions a machine retires between
// cancellation checks. Small enough that a wedged guest is reclaimed
// promptly, large enough to be invisible in throughput.
const ctxCheckInterval = 2_000_000

// Result is the observable outcome and statistics of one machine.
type Result struct {
	Name string
	Seed uint64

	// TraceHash is the FNV-1a hash of the (tid, rip, op) retired-
	// instruction stream, 0 unless Options.Hash was set.
	TraceHash uint64
	// EventHash hashes the kernel event stream (always computed).
	EventHash uint64
	// Steps counts retired guest instructions.
	Steps uint64
	// Syscalls counts syscall-entry kernel events.
	Syscalls uint64
	// Exit is how the booted process finished.
	Exit kernel.ExitInfo
	// VFSHash hashes the final filesystem tree.
	VFSHash uint64
	// ChaosInjected counts fault-injector perturbations (0 when the run
	// had no chaos profile).
	ChaosInjected uint64
	// DecodeCache aggregates decode-cache counters over every core.
	DecodeCache cpu.DecodeCacheStats
	// JIT aggregates superblock-engine counters over every core (all
	// zero when Options.JITOff disabled the engine).
	JIT cpu.JITStats
	// Wall is the host wall-clock time this machine took.
	Wall time.Duration
	// Err is a machine-level failure (spawn error, budget exhaustion,
	// cancellation), as a string so Results compare with ==.
	Err string
	// Obs carries the machine's observability snapshot (flight-recorder
	// trace, metrics, profile), nil unless Options.Obs enabled a
	// collector. Each machine owns its Observer — the no-shared-state
	// invariant — and snapshots are merged only at report time.
	Obs *obsv.Snapshot
	// Recording is the machine's replayable record (frontier, event
	// stream, checkpoints, final state), nil unless Options.Record was
	// set. Feed it to rr.Replay or write it out with rr.WriteJSONL.
	Recording *rr.Recording
}

// Options configures a fleet run.
type Options struct {
	// Workers bounds the worker pool; <=0 means GOMAXPROCS.
	Workers int
	// Hash enables per-instruction trace hashing (Result.TraceHash).
	// It costs a function call per retired instruction, so throughput
	// benchmarks leave it off; determinism tests turn it on.
	Hash bool
	// Obs selects per-machine observability collectors (flight
	// recorder, metrics, profiler). The zero value installs nothing.
	Obs obsv.Options
	// JITOff disables the trace-JIT superblock engine on every machine
	// (kernel.WithJITOff), leaving only the decode cache. The observable
	// hashes are bit-identical either way — TestFleetJITDeterminism
	// enforces it — so this is a diagnostic/benchmark knob, not a
	// semantic one.
	JITOff bool
	// Chaos, when non-nil, arms deterministic fault injection on every
	// machine. Each machine's injector seed is derived from its own
	// Machine.Seed xor ChaosSeed, so a fleet replays bit-identically at
	// any worker count and two sweeps with different ChaosSeed values
	// explore different perturbation schedules.
	Chaos *kernel.ChaosProfile
	// ChaosSeed salts the per-machine chaos seed derivation.
	ChaosSeed uint64
	// Record captures each machine as a replayable recording
	// (Result.Recording). Recorded machines are driven by the rr
	// engine's canonical run slicing — the schedule a later replay
	// reproduces — so for multi-threaded guests the hashes of a
	// recorded fleet are self-consistent but need not match an
	// unrecorded run of the same machines. The frontier derivations
	// (virtual clock, payload, chaos seed) are shared with the normal
	// path, and trace hashing is always on under Record. Machines with
	// a custom Setup cannot be recorded and report an error.
	Record bool
	// CheckpointEvery is the recorded checkpoint interval in virtual
	// ticks (0 = the rr default); only meaningful with Record.
	CheckpointEvery uint64
	// SfipPolicies maps machine names to SFIP policies: a machine whose
	// name has an entry gets an enforcer for that policy in SfipMode
	// (per-app policies, the paper's deployment model). Machines without
	// an entry run unpoliced.
	SfipPolicies map[string]*sfip.Policy
	// SfipMode is the enforcement posture for SfipPolicies.
	SfipMode sfip.Mode
	// Probes runs a compiled probe program (internal/probe) on every
	// machine. The Compiled is immutable and shared read-only; each
	// machine instantiates its own engine keyed by machine name and
	// mechanism, and per-machine snapshots merge commutatively in
	// MergedObs — so probe output is bit-identical at any worker count.
	Probes *probe.Compiled
}

// Report aggregates a fleet run.
type Report struct {
	Workers  int
	Machines []Result
	// Wall is the whole-fleet host wall-clock time.
	Wall time.Duration
}

// TotalSteps sums retired instructions over the fleet.
func (r *Report) TotalSteps() uint64 {
	var n uint64
	for i := range r.Machines {
		n += r.Machines[i].Steps
	}
	return n
}

// TotalSyscalls sums syscall counts over the fleet.
func (r *Report) TotalSyscalls() uint64 {
	var n uint64
	for i := range r.Machines {
		n += r.Machines[i].Syscalls
	}
	return n
}

// StepsPerSec is the aggregate simulation throughput in retired guest
// instructions per host second.
func (r *Report) StepsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.TotalSteps()) / r.Wall.Seconds()
}

// MachinesPerSec is the fleet completion rate.
func (r *Report) MachinesPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(len(r.Machines)) / r.Wall.Seconds()
}

// MergedObs folds every machine's observability snapshot into one
// fleet-wide view: histograms add bucketwise, mechanism and decode-cache
// counters sum, traces concatenate in machine order. Returns nil when no
// machine collected anything.
func (r *Report) MergedObs() *obsv.Snapshot {
	var merged *obsv.Snapshot
	for i := range r.Machines {
		if r.Machines[i].Obs == nil {
			continue
		}
		if merged == nil {
			merged = &obsv.Snapshot{}
		}
		merged.Merge(r.Machines[i].Obs)
	}
	return merged
}

// FirstErr returns the first machine error in fleet order, if any.
func (r *Report) FirstErr() error {
	for i := range r.Machines {
		if r.Machines[i].Err != "" {
			return fmt.Errorf("fleet: machine %s: %s", r.Machines[i].Name, r.Machines[i].Err)
		}
	}
	return nil
}

// Format renders the per-machine table and the aggregate line.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-12s %-10s %-9s %-9s %-10s %s\n",
		"Machine", "steps", "syscalls", "hit-rate", "wall", "exit", "err")
	for i := range r.Machines {
		m := &r.Machines[i]
		exit := "-"
		if m.Err == "" {
			exit = fmt.Sprintf("code=%d", m.Exit.Code)
			if m.Exit.Signal != 0 {
				exit = fmt.Sprintf("sig=%d", m.Exit.Signal)
			}
		}
		fmt.Fprintf(&b, "%-20s %-12d %-10d %-9s %-9s %-10s %s\n",
			m.Name, m.Steps, m.Syscalls,
			fmt.Sprintf("%.1f%%", m.DecodeCache.HitRate()*100),
			m.Wall.Round(time.Millisecond), exit, m.Err)
	}
	fmt.Fprintf(&b, "fleet: %d machines, %d workers, %.2fM steps/s aggregate, %.1f machines/s, wall %s\n",
		len(r.Machines), r.Workers, r.StepsPerSec()/1e6, r.MachinesPerSec(), r.Wall.Round(time.Millisecond))
	return b.String()
}

// splitmix64 is the seed-expansion PRNG (public-domain constants); it
// derives per-machine payloads and clock offsets from Machine.Seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seedPayload derives a deterministic request payload from the seed.
func seedPayload(seed uint64, n int) []byte {
	b := make([]byte, n)
	s := splitmix64(seed)
	for i := range b {
		s = splitmix64(s)
		b[i] = 'A' + byte(s%26)
	}
	return b
}

// Run executes the fleet across the worker pool and returns the report.
// Results are indexed in machine order regardless of completion order.
// Cancelling the context stops every machine at its next check point;
// cancelled machines report Err = context.Canceled's message.
func Run(ctx context.Context, machines []Machine, opt Options) (*Report, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("fleet: no machines")
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(machines) {
		workers = len(machines)
	}

	results := make([]Result, len(machines))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runMachine(ctx, machines[i], opt)
			}
		}()
	}
	start := time.Now()
	for i := range machines {
		idx <- i
	}
	close(idx)
	wg.Wait()

	return &Report{
		Workers:  workers,
		Machines: results,
		Wall:     time.Since(start),
	}, nil
}

// runMachine boots and drives one machine to completion on the calling
// goroutine. Everything it touches is private to the machine's World.
func runMachine(ctx context.Context, m Machine, opt Options) Result {
	res := Result{Name: m.Name, Seed: m.Seed}
	start := time.Now()
	defer func() { res.Wall = time.Since(start) }()
	if err := ctx.Err(); err != nil {
		res.Err = err.Error()
		return res
	}
	if opt.Record {
		runRecorded(m, opt, &res)
		return res
	}

	// One virtual-clock second per seed step keeps the offset well clear
	// of wrap-around while making gettimeofday visibly seed-dependent.
	kopts := []kernel.Option{kernel.WithVClock(splitmix64(m.Seed) % (1 << 40))}
	if opt.JITOff {
		kopts = append(kopts, kernel.WithJITOff(true))
	}
	if opt.Chaos != nil {
		kopts = append(kopts, kernel.WithChaos(splitmix64(m.Seed^opt.ChaosSeed), *opt.Chaos))
	}
	world := interpose.NewWorld(kopts...)
	if m.Setup != nil {
		if err := m.Setup(world); err != nil {
			res.Err = err.Error()
			return res
		}
	} else {
		apps.RegisterAll(world.Reg)
		if err := apps.SetupFS(world.K.FS); err != nil {
			res.Err = err.Error()
			return res
		}
	}

	// The event and trace hashes are rr's, line for line, so a fleet
	// result and a recording of the same machine carry equal hashes.
	eh, th := rr.NewFNV(), rr.NewFNV()
	var line []byte
	world.K.EventHook = func(e kernel.Event) {
		if e.Kind == kernel.EvEnter {
			res.Syscalls++
		}
		r := rr.EventRec{PID: e.PID, TID: e.TID, Kind: e.Kind.String(), Num: e.Num, Site: e.Site, Ret: e.Ret, Detail: e.Detail}
		line = r.AppendHashLine(line[:0])
		eh.WriteBytes(line)
	}
	if opt.Hash {
		world.K.StepTrace = func(tid int, rip uint64, op cpu.Op) {
			th.WriteU64(uint64(tid), rip, uint64(op))
		}
	}
	// Resolve the boot path: native spawn, or launch under the machine's
	// interposer variant — running the variant's offline phase first when
	// it needs a log.
	launch := func() (*kernel.Process, error) { return world.L.Spawn(m.Path, m.Argv, m.Env) }
	if m.Mechanism != "" {
		spec, ok := variants.ByName(m.Mechanism)
		if !ok {
			res.Err = fmt.Sprintf("unknown mechanism %q", m.Mechanism)
			return res
		}
		logPath := ""
		if spec.NeedsOfflineLog {
			off := &core.Offline{LogDir: "/var/k23/logs"}
			run, err := off.Start(world, m.Path, m.Argv, m.Env)
			if err != nil {
				res.Err = err.Error()
				return res
			}
			_ = world.K.RunUntilExit(run.Process(), DefaultMaxInsts)
			if _, err := run.Finish(); err != nil {
				res.Err = err.Error()
				return res
			}
			logPath = off.LogPath(m.Path[strings.LastIndexByte(m.Path, '/')+1:])
		}
		l := spec.New(interpose.Config{}, logPath)
		launch = func() (*kernel.Process, error) { return l.Launch(world, m.Path, m.Argv, m.Env) }
	}

	var obs *obsv.Observer
	oo := opt.Obs
	oo.Machine = m.Name
	if p := opt.SfipPolicies[m.Name]; p != nil {
		oo.SfipPolicy = p
		oo.SfipMode = opt.SfipMode
	}
	if opt.Probes != nil {
		oo.Probes = opt.Probes
		oo.ProbeMech = probeMech(m)
	}
	if oo.Enabled() {
		// Installed after the hash hook so AddEventHook chains both, and
		// after any offline phase — the controlled environment the audit
		// and SFIP layers deliberately exclude, the same attach point the
		// k23 CLI and the PoC matrix use. The observer is private to this
		// World, keeping the machine race-free and bit-identical at any
		// worker count. Span sets are keyed by machine name so a fleet
		// merge stays deterministic.
		obs = obsv.New(oo)
		obs.Install(world.K)
	}

	p, err := launch()
	if err != nil {
		res.Err = err.Error()
		return res
	}

	maxInsts := m.MaxInsts
	if maxInsts == 0 {
		maxInsts = DefaultMaxInsts
	}
	var retired uint64
	if m.Server {
		if err := inject(ctx, world, p, m, &retired, maxInsts); err != nil {
			res.Err = err.Error()
			return res
		}
	}
	for p.State == kernel.ProcRunning {
		if err := ctx.Err(); err != nil {
			res.Err = err.Error()
			return res
		}
		if retired >= maxInsts {
			res.Err = fmt.Sprintf("budget exhausted after %d instructions", retired)
			return res
		}
		slice := minU64(ctxCheckInterval, maxInsts-retired)
		n := world.K.Run(slice)
		retired += n
		if n == 0 && p.State == kernel.ProcRunning {
			res.Err = fmt.Sprintf("deadlock: pid %d has no runnable threads", p.PID)
			return res
		}
	}

	res.Exit = p.Exit
	res.EventHash = eh.Sum64()
	if opt.Hash {
		res.TraceHash = th.Sum64()
	}
	res.VFSHash = difftest.HashFS(world.K.FS)
	res.ChaosInjected = world.K.ChaosInjected()
	res.DecodeCache = world.K.DecodeCacheStats()
	res.JIT = world.K.JITStats()
	if obs != nil {
		res.Obs = obs.Snapshot()
	}
	for _, proc := range world.K.Processes() {
		for _, t := range proc.Threads {
			res.Steps += t.Core.Insts
		}
	}
	return res
}

// runRecorded drives one machine through the rr engine, producing a
// replayable recording alongside the usual result fields. The rr
// session owns scheduling (its canonical slices are what a replay will
// reproduce); the fleet keeps ownership of worker placement and
// reporting.
func runRecorded(m Machine, opt Options, res *Result) {
	if m.Setup != nil {
		res.Err = "record: custom Setup not supported"
		return
	}
	spec := rr.RunSpec{
		Name: m.Name, Mechanism: m.Mechanism,
		Path: m.Path, Argv: m.Argv, Env: m.Env,
		Server: m.Server, Requests: m.Requests,
		Seed: m.Seed, MaxInsts: m.MaxInsts,
		Chaos: opt.Chaos, ChaosSeed: opt.ChaosSeed,
		CheckpointEvery: opt.CheckpointEvery,
	}
	var obs *obsv.Observer
	hooks := rr.Hooks{}
	oo := opt.Obs
	oo.Machine = m.Name
	if p := opt.SfipPolicies[m.Name]; p != nil {
		oo.SfipPolicy = p
		oo.SfipMode = opt.SfipMode
	}
	if opt.Probes != nil {
		oo.Probes = opt.Probes
		oo.ProbeMech = probeMech(m)
	}
	if oo.Enabled() {
		hooks.BeforeLaunch = func(w *interpose.World) {
			obs = obsv.New(oo)
			obs.Install(w.K)
		}
	}
	s, err := rr.Record(spec, hooks)
	if err != nil {
		res.Err = err.Error()
		return
	}
	if err := s.Run(); err != nil {
		res.Err = err.Error()
		return
	}
	f := s.Rec.Final
	res.Recording = s.Rec
	res.TraceHash = f.TraceHash
	res.EventHash = f.EventHash
	res.VFSHash = f.VFSHash
	res.Steps = f.Steps
	res.Syscalls = f.Syscalls
	res.Exit = kernel.ExitInfo{Code: f.ExitCode, Signal: f.ExitSignal}
	res.ChaosInjected = f.ChaosInjected
	res.DecodeCache = s.W.K.DecodeCacheStats()
	res.JIT = s.W.K.JITStats()
	if obs != nil {
		res.Obs = obs.Snapshot()
	}
}

// probeMech is the static mechanism context a machine's probe engine
// reports for the `mech` field on streams that do not carry one.
func probeMech(m Machine) string {
	if m.Mechanism != "" {
		return m.Mechanism
	}
	return "native"
}

// inject waits for the server to listen and queues one keepalive
// connection carrying the machine's seed-derived request payload.
func inject(ctx context.Context, world *interpose.World, p *kernel.Process, m Machine, retired *uint64, maxInsts uint64) error {
	req := seedPayload(m.Seed, apps.RequestSize)
	port := apps.BasePort + p.PID
	for i := 0; i < 5000; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if *retired >= maxInsts {
			return fmt.Errorf("budget exhausted while waiting for listen")
		}
		*retired += world.K.Run(10_000)
		if err := world.K.InjectConn(port, req, m.Requests, nil); err == nil {
			return nil
		}
	}
	return fmt.Errorf("server on port %d never listened", port)
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// StandardFleet builds n machines cycling through the app workload
// matrix (the Table 2 set), seeded deterministically: machine i always
// gets the same workload and seed, so any prefix of the fleet is a
// stable regression surface.
func StandardFleet(n int) []Machine {
	base := difftest.AppWorkloads()
	out := make([]Machine, 0, n)
	for i := 0; i < n; i++ {
		w := base[i%len(base)]
		out = append(out, Machine{
			Name:     fmt.Sprintf("%s-%02d", w.Name, i),
			Seed:     uint64(i)*0x9e3779b97f4a7c15 + 1,
			Path:     w.Path,
			Argv:     w.Argv,
			Server:   w.Server,
			Requests: w.Requests,
		})
	}
	return out
}
