package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"k23/internal/apps"
	"k23/internal/asm"
	"k23/internal/core"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/obsv"
	"k23/internal/rr"
)

// workload is one traffic mix. Every round runs each configuration once,
// in a seeded order, closed-loop: one op at a time, the next starting
// when the previous one has finished.
type workload struct {
	name    string
	configs []string
	op      func(b *bench, cfg string)
	// deckRounds, when non-zero, is the number of rounds that deal every
	// configuration each of its inputs once; a timed pass then runs whole
	// decks, about one per deckTime on the reference host, rather than
	// running until its time is up.
	deckRounds int
	deckTime   time.Duration
}

var workloads = []*workload{
	{name: "syscall-storm", configs: stormMechs, op: stormOp},
	{name: "server-mix", configs: serverConfigs(), op: serverOp},
	// record-replay fails a fixed set of its seeks (the SeekSeq defect in
	// README.md). Whole decks of pinned inputs make the ops it attempts,
	// and the ones that fail, the same on every run whatever the seed or
	// the host's speed.
	{name: "record-replay", configs: rrMechs, op: rrOp,
		deckRounds: len(rrSeeds) * len(rrRequests), deckTime: 3500 * time.Millisecond},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// runBudget bounds every guest run; no workload input comes near it, so
// reaching it is a failed op.
const runBudget = 2_000_000_000

// logDir is where the K23 offline phase writes its logs inside a world.
const logDir = "/var/k23/logs"

// ---- syscall-storm: the Table 5 syscall-500 loop ----

const (
	stormPath    = "/bench/storm"
	stormSyscall = 500
	// Iteration counts are dealt from stormSizes steps of stormStep
	// upward of stormMinIters, plus a seeded offset below stormStep:
	// long enough that the loop, not set-up, dominates an op.
	stormMinIters = 2000
	stormStep     = 400
	stormSizes    = 10
	stormMaxIters = stormMinIters + stormSizes*stormStep
)

var stormMechs = []string{"native", "ptrace", "zpoline-ultra", "lazypoline", "k23-ultra+", "sud"}

// buildStorm assembles the microbenchmark of the paper's §6.2.1: argv[1]
// iterations of the non-existent system call 500, then exit_group(0).
func buildStorm() *image.Image {
	b := asm.NewBuilder(stormPath)
	b.Needed(libc.Path)
	t := b.Text()
	t.Label("_start")
	t.Load(cpu.R8, cpu.RSI, 8) // argv[1], decimal
	t.Xor(cpu.RBX, cpu.RBX)
	t.Label(".parse")
	t.LoadB(cpu.RCX, cpu.R8, 0)
	t.Test(cpu.RCX, cpu.RCX)
	t.Jz(".loop")
	t.MovImm32(cpu.R11, 10)
	t.Mul(cpu.RBX, cpu.R11)
	t.AddImm(cpu.RCX, -'0')
	t.Add(cpu.RBX, cpu.RCX)
	t.AddImm(cpu.R8, 1)
	t.Jmp(".parse")
	t.Label(".loop")
	t.MovImm32(cpu.RAX, stormSyscall)
	t.Syscall()
	t.AddImm(cpu.RBX, -1)
	t.Jnz(".loop")
	t.MovImm32(cpu.RDI, 0)
	t.CallSym("exit_group")
	return b.MustBuild()
}

func stormOp(b *bench, mech string) {
	n := stormMinIters + stormStep*b.draw(mech, stormSizes) + b.rng.intn(0, stormStep-1)
	b.noteInput("%s n=%d", mech, n)
	stormRun(b, mech, n)
}

func stormRun(b *bench, mech string, n int) {
	b.attempt(mech, func() error {
		spec, _ := variants.ByName(mech)
		st := b.startSetup(mech)
		var w *interpose.World
		b.call("interpose.NewWorld", func() error {
			w = interpose.NewWorld()
			w.MustRegister(buildStorm())
			return nil
		})
		logPath, err := b.offline(w, spec, stormPath, []string{"storm", "50"}, 0)
		if err != nil {
			return err
		}
		argv := []string{"storm", fmt.Sprint(n)}
		r, err := b.launch(w, spec, logPath, stormPath, argv, st)
		if err != nil {
			return err
		}
		if err := r.until(b, "Kernel.RunUntilExit", func() error { return w.K.RunUntilExit(r.p, runBudget) }); err != nil {
			return err
		}
		if err := r.checkExit(0); err != nil {
			return err
		}
		b.hold(w)
		return b.finishRun(r, "syscall-storm/"+mech, uint64(n))
	})
}

// ---- server-mix: the Table 6 applications ----

type serverApp struct {
	name, path string
	argv       []string
	// offlineArgv overrides argv for the K23 offline run.
	offlineArgv []string
	// server apps are driven by one injected keepalive connection;
	// the others take their op count as argv[2].
	server bool
	// The seeded input size is one of sizes steps of step upward of
	// minN, plus an offset below step: requests for a server, batches of
	// sqliteBatch operations for sqlite. Every sqlite op count has two
	// decimal digits, so parsing argv costs the same for all of them.
	minN, step, sizes int
}

var serverApps = []serverApp{
	{name: "redis", path: apps.RedisPath, argv: []string{"redis-server", "1"}, server: true, minN: 10, step: 3, sizes: 7},
	{name: "nginx", path: apps.NginxPath, argv: []string{"nginx", "4"}, server: true, minN: 10, step: 3, sizes: 7},
	{name: "lighttpd", path: apps.LighttpdPath, argv: []string{"lighttpd", "0"}, server: true, minN: 10, step: 3, sizes: 7},
	{name: "sqlite", path: apps.SqlitePath, argv: []string{"sqlite3"}, offlineArgv: []string{"sqlite3", "120"}, minN: 2, step: 1, sizes: 5},
}

// sqliteBatch is the sqlite workload's period: it probes its WAL every
// 16th operation, so its totals are linear in whole batches.
const sqliteBatch = 16

var serverMechs = []string{"native", "zpoline-default", "k23-ultra+"}

func serverConfigs() []string {
	var out []string
	for _, a := range serverApps {
		for _, m := range serverMechs {
			out = append(out, a.name+"/"+m)
		}
	}
	return out
}

// offlineRequests is the request count the K23 offline phase profiles a
// server with (a representative stream, paper §6.2).
const offlineRequests = 40

func serverAppOf(cfg string) (app serverApp, mech string) {
	name, mech, _ := strings.Cut(cfg, "/")
	for _, a := range serverApps {
		if a.name == name {
			app = a
		}
	}
	return app, mech
}

func serverOp(b *bench, cfg string) {
	app, _ := serverAppOf(cfg)
	n := app.minN + app.step*b.draw(cfg, app.sizes) + b.rng.intn(0, app.step-1)
	payload := make([]byte, apps.RequestSize)
	for i := range payload {
		payload[i] = 'a' + byte(b.rng.next()%26)
	}
	b.noteInput("%s n=%d payload=%s", cfg, n, payload)
	serverRun(b, cfg, n, payload)
}

func serverRun(b *bench, cfg string, n int, payload []byte) {
	app, mech := serverAppOf(cfg)
	b.attempt(cfg, func() error {
		spec, _ := variants.ByName(mech)
		st := b.startSetup(cfg)
		var w *interpose.World
		err := b.call("interpose.NewWorld", func() error {
			w = interpose.NewWorld()
			apps.RegisterAll(w.Reg)
			return apps.SetupFS(w.K.FS)
		})
		if err != nil {
			return err
		}
		offArgv, offReqs := app.offlineArgv, 0
		if offArgv == nil {
			offArgv = app.argv
		}
		if app.server {
			offReqs = offlineRequests
		}
		logPath, err := b.offline(w, spec, app.path, offArgv, offReqs)
		if err != nil {
			return err
		}
		argv := app.argv
		if !app.server {
			argv = append(append([]string(nil), argv...), fmt.Sprint(n*sqliteBatch))
		}
		r, err := b.launch(w, spec, logPath, app.path, argv, st)
		if err != nil {
			return err
		}
		err = r.until(b, "Kernel.RunUntilExit", func() error {
			if app.server {
				if err := b.inject(w, r.p, payload, n); err != nil {
					return err
				}
			}
			return w.K.RunUntilExit(r.p, runBudget)
		})
		if err != nil {
			return err
		}
		if app.server {
			port := apps.BasePort + r.p.PID
			if acc, done := w.K.ListenerStats(port); acc != 1 || done != n {
				return wrongf("%s answered %d of %d requests on %d connections", cfg, done, n, acc)
			}
			err = r.checkExit(n % 256)
		} else {
			err = r.checkExit(0)
		}
		if err != nil {
			return err
		}
		b.hold(w)
		return b.finishRun(r, "server-mix/"+cfg, uint64(n))
	})
}

// pollSlice and pollTries drive a server until it listens: the same
// slicing the paper-table harness uses, so the guest sees the same
// schedule.
const (
	pollSlice = 10_000
	pollTries = 5_000
)

// inject runs the world until p listens, then queues one keepalive
// connection carrying n requests.
func (b *bench) inject(w *interpose.World, p *kernel.Process, payload []byte, n int) error {
	port := apps.BasePort + p.PID
	for i := 0; i < pollTries; i++ {
		b.call("Kernel.Run", func() error {
			w.K.Run(pollSlice)
			return nil
		})
		var err error
		b.call("Kernel.InjectConn", func() error {
			err = w.K.InjectConn(port, payload, n, nil)
			return nil
		})
		if err == nil {
			return nil
		}
	}
	return fmt.Errorf("%s never listened on port %d", p.Path, port)
}

// ---- record-replay: a chaos-armed server under rr ----

var rrMechs = []string{"native", "k23-ultra+"}

// rr inputs come from small pools so every (mechanism, seed, requests)
// combination has pinned totals; a run deals whole decks of them, so the
// seed sets their order but not the mix.
var (
	rrSeeds    = []uint64{3, 5, 7, 11}
	rrRequests = []int{4, 6, 8, 10, 12}
)

const (
	// rrCheckpointEvery is short so a run holds many checkpoints and a
	// seek re-executes little.
	rrCheckpointEvery = 10_000
	// rrSeeks is the number of SeekSeq calls per recording.
	rrSeeks = 6
	// rrProbe is the probe line Retrace attaches.
	rrProbe = `syscall:*:exit { count() by (name); hist(cycles) by (mech) }`
)

func rrKey(mech string, seed uint64, reqs int) string {
	return fmt.Sprintf("record-replay/%s/seed=%d/req=%d", mech, seed, reqs)
}

func rrSpec(mech string, seed uint64, reqs int) rr.RunSpec {
	chaos := kernel.DefaultChaosProfile()
	return rr.RunSpec{
		Name: "redis", Mechanism: mech, Path: apps.RedisPath, Argv: []string{"redis-server", "1"},
		Server: true, Requests: reqs, Seed: seed, Chaos: &chaos, ChaosSeed: 1,
		CheckpointEvery: rrCheckpointEvery,
	}
}

// rrOp records one run, replays it, retraces it with observers attached
// and then seeks around it as a debugging session would. Each of those
// steps, and each seek, is one op.
func rrOp(b *bench, mech string) {
	i := b.draw(mech, len(rrSeeds)*len(rrRequests))
	seed, reqs := rrSeeds[i%len(rrSeeds)], rrRequests[i/len(rrSeeds)]
	targets := rrTargets(rrKey(mech, seed, reqs))
	b.noteInput("%s seeks=%v", rrKey(mech, seed, reqs), targets)
	rrRun(b, mech, seed, reqs, targets)
}

// rrTargets are a recording's seek targets in unsorted order, generated
// from its key: like its guest totals, they are pinned to the input, so
// which seeks fail depends on the recordings a run makes, not on the
// benchmark seed.
func rrTargets(key string) []uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	r := &rng{s: h.Sum64()}
	targets := make([]uint64, rrSeeks)
	for i := range targets {
		targets[i] = r.next()
	}
	return targets
}

// rrRun is one record-replay group; each seek target is reduced modulo
// the recorded run's event range.
func rrRun(b *bench, mech string, seed uint64, reqs int, targets []uint64) {
	spec := rrSpec(mech, seed, reqs)
	key := rrKey(mech, seed, reqs)

	var rec, rep, ret *rr.Session
	ok := b.attempt("record "+mech, func() error {
		c := now()
		st := b.startSetup(mech)
		err := b.call("rr.Record", func() (err error) {
			rec, err = rr.Record(spec, rr.Hooks{})
			return err
		})
		if err != nil {
			return err
		}
		st.done(b)
		r := &liveRun{p: rec.P, l: rec.Launcher(), mech: mech, rec: true}
		if err := r.until(b, "Session.Run", rec.Run); err != nil {
			return err
		}
		_, cpuT := c.since()
		if f := rec.Rec.Final; f.ExitSignal != 0 {
			return wrongf("%s: recorded run died with signal %d", key, f.ExitSignal)
		}
		r.syscalls = rec.Rec.Final.Syscalls
		r.steps = rec.Rec.Final.Steps
		if err := b.finishRun(r, key, 0); err != nil {
			return err
		}
		b.m.rrRecordCPU += cpuT
		b.m.rrRecordInsts += rec.Rec.Final.Steps
		b.m.recordings++
		for _, c := range rec.Rec.Checkpoints {
			b.m.checkpoints++
			b.m.pagesCopied += uint64(c.PagesCopied)
			b.m.pagesShared += uint64(c.PagesShared)
		}
		return nil
	})
	if !ok {
		return
	}
	b.attempt("replay "+mech, func() error {
		c := now()
		err := b.call("rr.Replay", func() (err error) {
			rep, err = rr.Replay(rec.Rec, rr.Hooks{})
			return err
		})
		if err != nil {
			return err
		}
		run := now()
		if err := b.call("Session.Run", rep.Run); err != nil {
			return err
		}
		_, runCPU := run.since()
		_, cpuT := c.since()
		if i, d := rep.Diverged(); d {
			return wrongf("%s: replay diverged at checkpoint %d", key, i)
		}
		if rep.Rec.Final != rec.Rec.Final {
			return wrongf("%s: replay final %+v, recording %+v", key, rep.Rec.Final, rec.Rec.Final)
		}
		// A replay is a guest run too: it re-executes the recording from
		// launch to exit.
		b.m.runMs = append(b.m.runMs, ms(runCPU))
		b.m.rrReplayCPU += cpuT
		b.m.rrReplayInsts += rep.Rec.Final.Steps
		b.m.insts += rep.Rec.Final.Steps
		b.m.syscalls += rep.Rec.Final.Syscalls
		return nil
	})
	b.attempt("retrace "+mech, func() error {
		var obs *obsv.Observer
		attach := func(w *interpose.World) {
			obs = obsv.New(obsv.Options{Metrics: true, Audit: true, Spans: true, Probes: b.probes, ProbeMech: mech})
			obs.Install(w.K)
		}
		c := now()
		err := b.call("rr.Retrace", func() (err error) {
			ret, err = rr.Retrace(rec.Rec, attach)
			return err
		})
		_, cpuT := c.since()
		if err != nil {
			return err
		}
		if ret.Rec.Final != rec.Rec.Final {
			return wrongf("%s: retrace final %+v, recording %+v", key, ret.Rec.Final, rec.Rec.Final)
		}
		if snap := obs.Snapshot(); snap.Metrics == nil || len(snap.Spans) == 0 || snap.Probes == nil {
			return wrongf("%s: retrace observers collected nothing", key)
		}
		b.m.rrRetraceCPU += cpuT
		b.m.rrRetraceInsts += ret.Rec.Final.Steps
		b.m.insts += ret.Rec.Final.Steps
		b.m.syscalls += ret.Rec.Final.Syscalls
		return nil
	})

	b.hold(rec, rep, ret)
	if b.held != nil {
		// The retained-heap pass measures the finished sessions: what a
		// seek restores depends on which seeks failed before it.
		return
	}
	// Seeks go to the recording session; a failed seek may leave its
	// session half-restored, so the next seek moves on to a fresh one
	// (the replay, then the retrace session).
	sessions := []*rr.Session{rec}
	for _, s := range []*rr.Session{rep, ret} {
		if s != nil {
			sessions = append(sessions, s)
		}
	}
	lo := rec.Rec.Checkpoints[0].Seq
	span := rec.Rec.Final.Seq - lo
	for _, t := range targets {
		if len(sessions) == 0 {
			break
		}
		target := lo + t%span
		s := sessions[0]
		ok := b.attempt("seek "+mech, func() error {
			var sk *rr.Seek
			c := now()
			err := b.call("Session.SeekSeq", func() (err error) {
				sk, err = s.SeekSeq(target)
				return err
			})
			_, cpuT := c.since()
			if err != nil {
				return err
			}
			if sk.Seq < target {
				return wrongf("%s: seek to %d stopped at %d", key, target, sk.Seq)
			}
			b.m.seekMs = append(b.m.seekMs, ms(cpuT))
			b.m.seekReexec += sk.ReExecuted
			b.m.insts += sk.ReExecuted
			return nil
		})
		if !ok {
			sessions = sessions[1:]
		}
	}
}

// ---- shared steps ----

// setupTimer measures one op's set-up: building the world, registering
// apps, the K23 offline phase and Launch.
type setupTimer struct {
	cfg string
	c   clock
}

func (b *bench) startSetup(cfg string) setupTimer { return setupTimer{cfg, now()} }

func (st setupTimer) done(b *bench) {
	_, cpuT := st.c.since()
	b.m.setup[st.cfg] = append(b.m.setup[st.cfg], cpuT.Seconds())
}

// offline runs the K23 offline phase when spec needs it and returns the
// log path to launch with. Servers are profiled with a representative
// all-zeros request stream of requests requests.
func (b *bench) offline(w *interpose.World, spec variants.Spec, path string, argv []string, requests int) (string, error) {
	if !spec.NeedsOfflineLog {
		return "", nil
	}
	off := &core.Offline{LogDir: logDir}
	c := now()
	err := b.call("core.Offline", func() error {
		var run *core.OfflineRun
		err := b.call("core.Offline.Start", func() (err error) {
			run, err = off.Start(w, path, argv, nil)
			return err
		})
		if err != nil {
			return err
		}
		if requests > 0 {
			if err := b.inject(w, run.Process(), make([]byte, apps.RequestSize), requests); err != nil {
				return err
			}
		}
		if err := b.call("Kernel.RunUntilExit", func() error { return w.K.RunUntilExit(run.Process(), runBudget) }); err != nil {
			return err
		}
		return b.call("core.OfflineRun.Finish", func() error {
			_, err := run.Finish()
			return err
		})
	})
	_, cpuT := c.since()
	b.m.offlineMs = append(b.m.offlineMs, ms(cpuT))
	if err != nil {
		return "", fmt.Errorf("offline phase: %w", err)
	}
	return off.LogPath(path[strings.LastIndexByte(path, '/')+1:]), nil
}

// liveRun is one production guest run from Launch to exit.
type liveRun struct {
	p    *kernel.Process
	l    interpose.Launcher
	mech string
	// rec marks an rr recording; its totals come from rr's own hooks.
	rec bool
	// counted is the event-hook syscall count of a traced live run.
	counted *uint64
	// cpu is the host CPU time from Launch returning to guest exit.
	cpu time.Duration
	// steps and syscalls are the run's guest totals (rr runs fill them
	// from the recording's Final; live runs from the threads and pins).
	steps, syscalls uint64
}

// launch builds the launcher and starts path under it, ending the op's
// set-up. In a traced run it first installs the syscall-counting hook.
func (b *bench) launch(w *interpose.World, spec variants.Spec, logPath, path string, argv []string, st setupTimer) (*liveRun, error) {
	r := &liveRun{l: spec.New(interpose.Config{}, logPath), mech: spec.Name}
	if b.tr != nil {
		var n uint64
		r.counted = &n
		w.K.AddEventHook(func(e kernel.Event) {
			if e.Kind == kernel.EvEnter {
				n++
			}
		})
	}
	c := now()
	err := b.call("Launcher.Launch", func() (err error) {
		r.p, err = r.l.Launch(w, path, argv, nil)
		return err
	})
	_, cpuT := c.since()
	if err != nil {
		return nil, err
	}
	if spec.Name == "native" {
		b.m.spawnMs = append(b.m.spawnMs, ms(cpuT))
	} else {
		b.m.launchMs = append(b.m.launchMs, ms(cpuT))
	}
	st.done(b)
	return r, nil
}

// until runs the guest with fn, a call into the kernel's scheduler, and
// books its wall and CPU time as the run's.
func (r *liveRun) until(b *bench, name string, fn func() error) error {
	c := now()
	err := b.call(name, fn)
	_, r.cpu = c.since()
	return err
}

func (r *liveRun) checkExit(code int) error {
	if r.p.Exit.Signal != 0 || r.p.Exit.Code != code {
		return wrongf("%s under %s exited %s, want code %d", r.p.Path, r.mech, r.p.Exit, code)
	}
	return nil
}
