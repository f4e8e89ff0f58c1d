package rr

import (
	"fmt"
	"strings"

	"k23/internal/apps"
	"k23/internal/core"
	"k23/internal/cpu"
	"k23/internal/cpu/difftest"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
)

// Hooks customizes session construction.
type Hooks struct {
	// BeforeLaunch runs after the world is prepared and any offline phase
	// has finished, immediately before production interposition starts —
	// the correct attach point for observers (audit, flight recorder)
	// that must cover exactly the production run.
	BeforeLaunch func(w *interpose.World)
}

// liveCkpt pairs a checkpoint's metadata with its in-memory kernel
// snapshot and the resumable recorder state (hash accumulators,
// counters) needed to continue the recording from it.
type liveCkpt struct {
	meta     CkptMeta
	snap     *kernel.Snapshot
	traceH   uint64
	eventH   uint64
	steps    uint64
	syscalls uint64
	evCount  int
	injected bool
}

// Session drives one machine under the recorder. A session records (or
// replays) a run to completion, holding live snapshots at every
// checkpoint; afterwards it can re-execute from any checkpoint
// (RunFromCheckpoint) or seek to an event ordinal (SeekSeq) by
// restoring the nearest snapshot and running forward.
type Session struct {
	Spec RunSpec
	W    *interpose.World
	P    *kernel.Process
	// Rec is this session's recording, complete after Run.
	Rec *Recording

	launcher interpose.Launcher
	replayOf *Recording
	ckpts    []*liveCkpt
	th, eh   FNV
	steps    uint64
	syscalls uint64
	events   []EventRec
	// line is the scratch buffer each event's hash line is built in;
	// argSlab is the current chunk EvEnter events' Args are carved from.
	line     []byte
	argSlab  []uint64
	lastCkpt uint64 // VClock at the last checkpoint
	injected bool
	// retracing suppresses checkpoint-taking and event/divergence
	// bookkeeping while re-executing a stretch the session already
	// recorded (RunFromCheckpoint, SeekSeq).
	retracing bool
	// divergence is the first checkpoint index whose replayed metadata
	// mismatched the recording being replayed; -1 means none (so far).
	divergence int
	// finalDiverged marks a replay whose final state mismatched even
	// though every checkpoint matched (divergence after the last one).
	finalDiverged bool
	finished      bool
}

// Record builds a session that records spec from scratch: the frontier
// values (initial clock, payload, chaos stream) are derived from
// spec.Seed and captured into the recording as they are consumed.
func Record(spec RunSpec, hooks Hooks) (*Session, error) {
	rec := &Recording{Version: FormatVersion, Spec: spec, VClock0: deriveVClock0(spec.Seed)}
	if spec.Server {
		p := seedPayload(spec.Seed, apps.RequestSize)
		rec.Payload = string(p)
		rec.PayloadDigest = digest(p)
	}
	kopts := []kernel.Option{kernel.WithVClock(rec.VClock0)}
	if spec.Chaos != nil {
		kopts = append(kopts, kernel.WithChaos(splitmix64(spec.Seed^spec.ChaosSeed), *spec.Chaos))
	}
	s := &Session{Spec: spec, Rec: rec, divergence: -1}
	if err := s.boot(kopts, hooks); err != nil {
		return nil, err
	}
	return s, nil
}

// Replay builds a session that re-executes a recording. It consumes
// only the recorded frontier — initial clock, payload bytes, chaos
// decision script — never re-deriving anything from the seed, so a
// matching outcome proves the frontier captured every source of
// nondeterminism. The session records its own trace as it goes and
// flags the first checkpoint where it diverges from rec.
func Replay(rec *Recording, hooks Hooks) (*Session, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	spec := rec.Spec
	newRec := &Recording{
		Version: FormatVersion, Spec: spec,
		VClock0: rec.VClock0, Payload: rec.Payload, PayloadDigest: rec.PayloadDigest,
	}
	kopts := []kernel.Option{kernel.WithVClock(rec.VClock0)}
	if spec.Chaos != nil {
		kopts = append(kopts, kernel.WithChaosScript(*spec.Chaos, rec.Chaos))
	}
	s := &Session{Spec: spec, Rec: newRec, replayOf: rec, divergence: -1}
	if err := s.boot(kopts, hooks); err != nil {
		return nil, err
	}
	return s, nil
}

// boot prepares the world, runs any offline phase, installs the
// recording hooks, launches the workload, and takes checkpoint 0.
func (s *Session) boot(kopts []kernel.Option, hooks Hooks) error {
	mech := s.Spec.Mechanism
	if mech == "" {
		mech = "native"
	}
	vs, ok := variants.ByName(mech)
	if !ok {
		return fmt.Errorf("rr: unknown mechanism %q", mech)
	}

	w := interpose.NewWorld(kopts...)
	s.W = w
	apps.RegisterAll(w.Reg)
	if err := apps.SetupFS(w.K.FS); err != nil {
		return err
	}

	// The K23 offline phase runs before the recording hooks attach: it is
	// the controlled pre-production environment, deterministic given the
	// spec, and with no event hook installed the kernel's event ordinal
	// does not advance — identically so on replay.
	logPath := ""
	if vs.NeedsOfflineLog {
		off := &core.Offline{LogDir: "/var/k23/logs"}
		run, err := off.Start(w, s.Spec.Path, s.Spec.Argv, nil)
		if err != nil {
			return err
		}
		if s.Spec.Server {
			// Drive the offline server with an all-zeros connection so it
			// serves and exits instead of polling its whole budget away.
			// The payload is a constant, so the offline phase stays
			// deterministic and identical between record and replay.
			req := make([]byte, apps.RequestSize)
			port := apps.BasePort + run.Process().PID
			for i := 0; i < PollTries; i++ {
				w.K.Run(PollSlice)
				if err := w.K.InjectConn(port, req, s.Spec.Requests, nil); err == nil {
					break
				}
			}
		}
		_ = w.K.RunUntilExit(run.Process(), 200_000_000)
		if _, err := run.Finish(); err != nil {
			return err
		}
		name := s.Spec.Path[strings.LastIndexByte(s.Spec.Path, '/')+1:]
		logPath = off.LogPath(name)
	}

	if hooks.BeforeLaunch != nil {
		hooks.BeforeLaunch(w)
	}

	s.th, s.eh = NewFNV(), NewFNV()
	prevStep := w.K.StepTrace
	w.K.StepTrace = func(tid int, rip uint64, op cpu.Op) {
		s.th.WriteU64(uint64(tid), rip, uint64(op))
		s.steps++
		if prevStep != nil {
			prevStep(tid, rip, op)
		}
	}
	w.K.AddEventHook(func(e kernel.Event) {
		if e.Kind == kernel.EvEnter {
			s.syscalls++
		}
		r := EventRec{
			Seq: e.Seq, PID: e.PID, TID: e.TID, Kind: e.Kind.String(),
			Num: e.Num, Site: e.Site, Ret: e.Ret, Clock: e.Clock, Detail: e.Detail,
		}
		s.line = r.AppendHashLine(s.line[:0])
		s.eh.WriteBytes(s.line)
		if e.Kind == kernel.EvEnter {
			r.Args = s.holdArgs(&e.Args)
		}
		s.events = append(s.events, r)
	})

	s.launcher = vs.New(interpose.Config{}, logPath)
	p, err := s.launcher.Launch(w, s.Spec.Path, s.Spec.Argv, s.Spec.Env)
	if err != nil {
		return err
	}
	s.P = p
	s.lastCkpt = w.K.VClock
	return s.takeCheckpoint()
}

// argSlabEvents is how many events' syscall arguments one argSlab chunk
// holds.
const argSlabEvents = 64

// holdArgs copies an EvEnter event's arguments into the session's slab
// and returns them as that event's Args. The slice's capacity ends at its
// own last word, so an append to it can never overwrite a neighbour's.
func (s *Session) holdArgs(a *[6]uint64) []uint64 {
	if cap(s.argSlab)-len(s.argSlab) < len(a) {
		s.argSlab = make([]uint64, 0, argSlabEvents*len(a))
	}
	n := len(s.argSlab)
	s.argSlab = append(s.argSlab, a[:]...)
	return s.argSlab[n : n+len(a) : n+len(a)]
}

// takeCheckpoint snapshots the world and the resumable recorder state.
// In replay mode it also compares the new checkpoint's position and
// hashes against the recording under replay, flagging the first
// divergent index.
func (s *Session) takeCheckpoint() error {
	var prev *kernel.Snapshot
	if n := len(s.ckpts); n > 0 {
		prev = s.ckpts[n-1].snap
	}
	snap, err := s.W.K.Checkpoint(prev)
	if err != nil {
		return fmt.Errorf("rr: checkpoint %d: %v", len(s.ckpts), err)
	}
	copied, shared := snap.ASDelta()
	c := &liveCkpt{
		meta: CkptMeta{
			Index: len(s.ckpts), Seq: s.W.K.EventSeq(), VClock: s.W.K.VClock,
			Steps: s.steps, Events: len(s.events),
			TraceHash: s.th.h, EventHash: s.eh.h,
			PagesCopied: copied, PagesShared: shared,
		},
		snap: snap, traceH: s.th.h, eventH: s.eh.h,
		steps: s.steps, syscalls: s.syscalls,
		evCount: len(s.events), injected: s.injected,
	}
	s.ckpts = append(s.ckpts, c)
	if s.replayOf != nil && s.divergence < 0 {
		i := c.meta.Index
		if i >= len(s.replayOf.Checkpoints) || s.replayOf.Checkpoints[i] != c.meta {
			s.divergence = i
		}
	}
	s.lastCkpt = s.W.K.VClock
	return nil
}

// Run drives the session to completion, taking checkpoints at the
// configured virtual-tick interval, and finalizes Rec.
func (s *Session) Run() error {
	if s.Spec.Server && !s.injected {
		if err := s.inject(0); err != nil {
			return err
		}
	}
	if err := s.runMain(0); err != nil {
		return err
	}
	s.finalize()
	return nil
}

// inject polls for the server's listener with the canonical poll slice,
// then queues the recorded payload. The post-injection checkpoint is
// the first main-loop restore point.
func (s *Session) inject(untilSeq uint64) error {
	k := s.W.K
	payload := []byte(s.Rec.Payload)
	port := apps.BasePort + s.P.PID
	for i := 0; i < PollTries; i++ {
		if s.P.State != kernel.ProcRunning {
			return nil
		}
		if untilSeq > 0 && k.EventSeq() >= untilSeq {
			return nil
		}
		if s.steps >= s.Spec.maxInsts() {
			return fmt.Errorf("rr: budget exhausted while waiting for listen")
		}
		k.Run(PollSlice)
		if err := k.InjectConn(port, payload, s.Spec.Requests, nil); err == nil {
			s.injected = true
			if !s.retracing {
				return s.takeCheckpoint()
			}
			return nil
		}
	}
	return fmt.Errorf("rr: server on port %d never listened", port)
}

// runMain is the canonical main drive loop: fixed Run slices, a
// checkpoint whenever the virtual clock has advanced a full interval.
// With untilSeq > 0 it stops once the kernel has emitted an event with
// that ordinal (kernel.StopAtSeq makes the stop land at the precise
// quantum boundary without perturbing execution).
func (s *Session) runMain(untilSeq uint64) error {
	k := s.W.K
	every := s.Spec.checkpointEvery()
	for s.P.State == kernel.ProcRunning {
		if untilSeq > 0 && k.EventSeq() >= untilSeq {
			return nil
		}
		if s.steps >= s.Spec.maxInsts() {
			return fmt.Errorf("rr: budget exhausted after %d instructions", s.steps)
		}
		n := k.Run(Slice)
		if n == 0 && s.P.State == kernel.ProcRunning {
			return fmt.Errorf("rr: deadlock: pid %d has no runnable threads", s.P.PID)
		}
		if !s.retracing && k.VClock-s.lastCkpt >= every {
			if err := s.takeCheckpoint(); err != nil {
				return err
			}
		}
	}
	return nil
}

// finalize captures the run's observable outcome into Rec.
func (s *Session) finalize() {
	k := s.W.K
	s.Rec.Chaos = append([]kernel.ChaosDecision(nil), k.ChaosDecisions()...)
	s.Rec.Events = append([]EventRec(nil), s.events...)
	s.Rec.Checkpoints = s.ckptMetas()
	s.Rec.Final = s.currentFinal()
	if s.replayOf != nil && s.divergence < 0 {
		if s.Rec.Final != s.replayOf.Final {
			s.finalDiverged = true
		} else if !sameEvents(s.Rec.Events, s.replayOf.Events) {
			// The re-executed run matched its own checkpoints and final
			// hashes but the recording's *event lines* disagree with what
			// replay produced: the recording was edited or corrupted after
			// the fact (hashes in the file still describe the true stream).
			s.finalDiverged = true
		}
	}
	s.finished = true
}

// sameEvents compares two event streams field by field.
func sameEvents(a, b []EventRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eventEq(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

func (s *Session) ckptMetas() []CkptMeta {
	out := make([]CkptMeta, len(s.ckpts))
	for i, c := range s.ckpts {
		out[i] = c.meta
	}
	return out
}

// currentFinal reads the observable outcome off the live world.
func (s *Session) currentFinal() Final {
	k := s.W.K
	return Final{
		TraceHash: s.th.h, EventHash: s.eh.h,
		VFSHash: difftest.HashFS(k.FS),
		Steps:   s.steps, Syscalls: s.syscalls,
		Events: len(s.events), Seq: k.EventSeq(),
		ExitCode: s.P.Exit.Code, ExitSignal: s.P.Exit.Signal,
		ChaosInjected: k.ChaosInjected(),
		StdoutDigest:  digest(s.P.Stdout), StderrDigest: digest(s.P.Stderr),
	}
}

// Diverged reports whether a replay mismatched the recording it was
// replaying: the first divergent checkpoint index, or the checkpoint
// count if only the final state differed.
func (s *Session) Diverged() (ckptIndex int, diverged bool) {
	if s.divergence >= 0 {
		return s.divergence, true
	}
	if s.finalDiverged {
		return len(s.ckpts), true
	}
	return -1, false
}

// NumCheckpoints returns how many live checkpoints the session holds.
func (s *Session) NumCheckpoints() int { return len(s.ckpts) }

// Launcher exposes the session's interposer launcher (for stats).
func (s *Session) Launcher() interpose.Launcher { return s.launcher }

// ReplayOf returns the recording this session is replaying, nil for a
// recording session.
func (s *Session) ReplayOf() *Recording { return s.replayOf }

// restoreTo rewinds the world and the recorder state to checkpoint i.
// It runs only on a finished session, whose live event stream an earlier
// restore may already have truncated, so the checkpoint's prefix is
// taken from the primary run's stream in Rec.
func (s *Session) restoreTo(i int) *liveCkpt {
	c := s.ckpts[i]
	s.W.K.Restore(c.snap)
	s.th.h, s.eh.h = c.traceH, c.eventH
	s.steps, s.syscalls = c.steps, c.syscalls
	s.events = append(s.events[:0], s.Rec.Events[:c.evCount]...)
	s.injected = c.injected
	return c
}

// RunFromCheckpoint restores checkpoint i and re-executes the run to
// completion with the canonical drive loop, returning the observable
// outcome. A correct engine returns exactly Rec.Final for every i —
// the replay-equivalence battery's core assertion.
func (s *Session) RunFromCheckpoint(i int) (Final, error) {
	if !s.finished {
		return Final{}, fmt.Errorf("rr: session has not finished its primary run")
	}
	if i < 0 || i >= len(s.ckpts) {
		return Final{}, fmt.Errorf("rr: checkpoint %d out of range [0,%d)", i, len(s.ckpts))
	}
	s.restoreTo(i)
	s.retracing = true
	defer func() { s.retracing = false }()
	if s.Spec.Server && !s.injected {
		if err := s.inject(0); err != nil {
			return Final{}, err
		}
	}
	if err := s.runMain(0); err != nil {
		return Final{}, err
	}
	return s.currentFinal(), nil
}

// Seek reports the outcome of a SeekSeq call.
type Seek struct {
	// Target is the requested event ordinal.
	Target uint64
	// From is the checkpoint the seek restored, or -1 when the target
	// precedes checkpoint 0 and the seek replayed from tick 0 instead.
	From int
	// ReExecuted counts instructions re-executed from the checkpoint to
	// the target — the replay-latency metric.
	ReExecuted uint64
	// Seq and VClock are the kernel's position after the stop: the event
	// with ordinal Target-? has been emitted (Seq >= Target unless the
	// run ended first).
	Seq    uint64
	VClock uint64
}

// SeekSeq restores the nearest checkpoint at or before the target event
// ordinal and re-executes forward until the event with that ordinal has
// been emitted, leaving the world positioned just past it. This is the
// `k23 -replay -until <seq>` engine: reaching an audit-ledger escape's
// seq costs only the tail re-execution from the nearest checkpoint, not
// the full run. (A checkpoint's Seq is the ordinal the next event will
// carry, so a checkpoint with Seq <= target lies strictly before the
// target event's emission.) A target before checkpoint 0 — a
// launch-time event, e.g. a startup-category escape — replays the
// launch alone in a fresh world and reports From = -1; the session's
// own world is left untouched in that case.
func (s *Session) SeekSeq(target uint64) (*Seek, error) {
	if !s.finished {
		return nil, fmt.Errorf("rr: session has not finished its primary run")
	}
	best := -1
	for i, c := range s.ckpts {
		if c.meta.Seq <= target {
			best = i
		}
	}
	if best < 0 {
		// The target event was emitted during Launch, before checkpoint 0
		// could exist. Launch is host-driven and atomic — the scheduler
		// never runs inside it — so the nearest stop boundary past the
		// target is the post-launch state. Replay it in a fresh world;
		// the cost is the launch alone, not the full run.
		sub, err := Replay(s.Rec, Hooks{})
		if err != nil {
			return nil, fmt.Errorf("rr: seek to launch-time seq %d: %v", target, err)
		}
		return &Seek{
			Target: target, From: -1,
			ReExecuted: sub.steps,
			Seq:        sub.W.K.EventSeq(), VClock: sub.W.K.VClock,
		}, nil
	}
	s.restoreTo(best)
	s.retracing = true
	defer func() { s.retracing = false }()
	k := s.W.K
	start := s.steps
	k.StopAtSeq = target
	defer func() { k.StopAtSeq = 0 }()
	if s.Spec.Server && !s.injected {
		if err := s.inject(target + 1); err != nil {
			return nil, err
		}
	}
	if s.P.State == kernel.ProcRunning && k.EventSeq() < target+1 {
		if err := s.runMain(target + 1); err != nil {
			return nil, err
		}
	}
	return &Seek{
		Target: target, From: best,
		ReExecuted: s.steps - start,
		Seq:        k.EventSeq(), VClock: k.VClock,
	}, nil
}
