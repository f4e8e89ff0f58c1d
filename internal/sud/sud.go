// Package sud implements a pure Syscall-User-Dispatch interposer: every
// system call outside the library's allowlisted range raises SIGSYS, the
// handler runs the hook and re-executes the call from interposer-owned
// code, then returns by rewriting the signal context. This is the
// exhaustive-but-slow baseline of the paper's Table 5 (≈15x native) and
// the engine K23's offline libLogger is built on.
package sud

import (
	"fmt"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/loader"
)

// Hostcall id for the SIGSYS handler body.
const hcSigsys int32 = 110

// SUD is the pure-SUD Launcher.
type SUD struct {
	Config interpose.Config
	// Passive arms SUD but leaves the selector on ALLOW: no syscall is
	// interposed, yet every syscall pays the slower kernel entry path.
	// This is the paper's "SUD-no-interposition" configuration (§6.2.1).
	Passive bool
	// Seccomp switches the trap mechanism from Syscall User Dispatch to
	// a seccomp TRAP-all filter with a cookie-argument allow rule — the
	// seccomp-based exhaustive-interposition alternative the paper
	// mentions for the offline phase (§5.1). Unlike SUD it has no
	// selector and cannot be disabled by the application (no P1b).
	Seccomp bool
	img     *image.Image
}

// seccompCookie is the secret arg5 value the seccomp-mode handler tags
// re-executed syscalls with; the filter allowlists it.
const seccompCookie = 0x5EC0_FFEE_D00D

// New returns a SUD launcher.
func New(cfg interpose.Config) *SUD {
	s := &SUD{Config: cfg}
	s.img = s.buildLibrary()
	return s
}

// NewPassive returns the SUD-no-interposition configuration.
func NewPassive() *SUD {
	s := &SUD{Passive: true}
	s.img = s.buildLibrary()
	return s
}

// NewSeccompTrap returns a seccomp-TRAP-based exhaustive interposer.
func NewSeccompTrap(cfg interpose.Config) *SUD {
	s := &SUD{Config: cfg, Seccomp: true}
	s.img = s.buildLibrary()
	return s
}

// Name implements interpose.Launcher.
func (s *SUD) Name() string {
	switch {
	case s.Passive:
		return "sud-no-interposition"
	case s.Seccomp:
		return "seccomp-trap"
	default:
		return "sud"
	}
}

// LibraryPath is the injected library's path.
func (s *SUD) LibraryPath() string {
	if s.Seccomp {
		return "/usr/lib/libseccomptrap.so"
	}
	return "/usr/lib/libsud.so"
}

// state is the per-process runtime state.
type state struct {
	stats        interpose.Stats
	selectorAddr uint64
	frameAddr    uint64 // syscall frame consumed by sud_do_syscall
	doSyscall    uint64
}

func stateOf(p *kernel.Process) (*state, error) {
	st, ok := p.Interposer.(*state)
	if !ok {
		return nil, fmt.Errorf("sud: process %d not interposed", p.PID)
	}
	return st, nil
}

// Launch implements interpose.Launcher.
func (s *SUD) Launch(w *interpose.World, path string, argv, env []string) (*kernel.Process, error) {
	return s.LaunchWith(w, path, argv, env)
}

// LaunchWith is Launch with extra spawn options (used by K23's offline
// phase to attach its injection-guard tracer).
func (s *SUD) LaunchWith(w *interpose.World, path string, argv, env []string,
	opts ...loader.SpawnOption) (*kernel.Process, error) {
	if _, ok := w.Reg.Lookup(s.LibraryPath()); !ok {
		w.Reg.MustAdd(s.img)
	}
	env = kernel.SetEnv(append([]string(nil), env...), loader.LdPreloadVar, s.LibraryPath())
	return w.L.Spawn(path, argv, env, opts...)
}

// Stats implements interpose.Launcher.
func (s *SUD) Stats(p *kernel.Process) *interpose.Stats {
	st, err := stateOf(p)
	if err != nil {
		return &interpose.Stats{}
	}
	return &st.stats
}

var _ interpose.Launcher = (*SUD)(nil)

// buildLibrary assembles libsud.so.
func (s *SUD) buildLibrary() *image.Image {
	b := asm.NewBuilder(s.LibraryPath())
	b.Needed(libc.Path)

	d := b.Data()
	d.Label("sud_selector").Raw(kernel.SelectorAllow)
	d.Align(8)
	d.Label("sud_frame").Space(7 * 8)      // rax + 6 args
	d.Label("sud_filter").Space(16 + 2*40) // seccomp mode: count, default, 2 rules

	t := b.Text()
	// SIGSYS handler: host logic, then rt_sigreturn from inside the
	// allowlisted range (so the return itself is not re-dispatched —
	// the standard SUD handler structure, §2.1).
	t.Label("sud_handler")
	t.Hostcall(hcSigsys)
	t.MovImm32(cpu.RAX, kernel.SysRtSigreturn)
	t.Syscall()

	// sud_do_syscall: execute the system call described by sud_frame.
	// Runs inside the allowlisted range: never re-dispatched.
	t.Label("sud_do_syscall")
	t.MovImmSym(cpu.R11, "sud_frame")
	t.Load(cpu.RAX, cpu.R11, 0)
	t.Load(cpu.RDI, cpu.R11, 8)
	t.Load(cpu.RSI, cpu.R11, 16)
	t.Load(cpu.RDX, cpu.R11, 24)
	t.Load(cpu.R10, cpu.R11, 32)
	t.Load(cpu.R8, cpu.R11, 40)
	t.Load(cpu.R9, cpu.R11, 48)
	t.Syscall()
	t.Ret()

	b.InitHost(s.initHost)
	return b.MustBuild()
}

// initHost installs the handler and arms SUD.
func (s *SUD) initHost(h any, base uint64) error {
	ih, ok := h.(*loader.InitHandle)
	if !ok {
		return fmt.Errorf("sud: unexpected init handle %T", h)
	}
	k, p, t := ih.L.K, ih.P, ih.T

	st := &state{}
	p.Interposer = st
	selOff, _ := s.img.SymbolOff("sud_selector")
	frameOff, _ := s.img.SymbolOff("sud_frame")
	handlerOff, _ := s.img.SymbolOff("sud_handler")
	doOff, _ := s.img.SymbolOff("sud_do_syscall")
	st.selectorAddr = base + selOff
	st.frameAddr = base + frameOff
	st.doSyscall = base + doOff

	k.RegisterHostcall(p, hcSigsys, &kernel.Hostcall{
		Name: "sud_sigsys", Cost: 40, Fn: s.hcSigsysFn,
	})

	gate := ih.Gate()
	sys := func(nr uint64, args ...uint64) (uint64, error) {
		var a [6]uint64
		a[0] = nr
		copy(a[1:], args)
		// Bounded transient retry: under chaos injection the gate's
		// syscalls can fail with EINTR/EAGAIN/ENOMEM/EMFILE; robust
		// init code re-issues them like the libc wrappers do.
		for tries := 0; ; tries++ {
			ret, err := k.CallGuestInfra(t, gate, a)
			if err != nil {
				return ret, err
			}
			if e, bad := kernel.IsErr(ret); bad && kernel.IsTransient(e) && tries < 64 {
				continue
			}
			return ret, nil
		}
	}

	// sigaction(SIGSYS, handler).
	if _, err := sys(kernel.SysRtSigaction, kernel.SIGSYS, base+handlerOff); err != nil {
		return err
	}
	if s.Seccomp {
		// Serialize the filter into the library's data block and
		// install it: TRAP everything except cookie-tagged calls and
		// rt_sigreturn.
		filterOff, _ := s.img.SymbolOff("sud_filter")
		filterAddr := base + filterOff
		words := []uint64{
			2, kernel.SeccompRetTrap,
			kernel.SeccompAnyNr, 1, 5, seccompCookie, kernel.SeccompRetAllow,
			kernel.SysRtSigreturn, 0, 0, 0, kernel.SeccompRetAllow,
		}
		for i, wv := range words {
			if err := p.AS.KStoreU64(filterAddr+uint64(8*i), wv); err != nil {
				return err
			}
		}
		if ret, err := sys(kernel.SysSeccomp, kernel.SeccompSetModeFilter, 0, filterAddr); err != nil {
			return err
		} else if e, isErr := kernel.IsErr(ret); isErr {
			return fmt.Errorf("sud: seccomp install: errno %d", e)
		}
		return nil
	}
	// prctl(PR_SET_SYSCALL_USER_DISPATCH, ON, allowStart, allowLen, selector)
	text, _ := s.img.Section(".text")
	if _, err := sys(kernel.SysPrctl, kernel.PrSetSyscallUserDispatch, kernel.PrSysDispatchOn,
		base+text.Off, text.Size, st.selectorAddr); err != nil {
		return err
	}
	if !s.Passive {
		if err := p.AS.Store(st.selectorAddr, []byte{kernel.SelectorBlock}, t.Core.PKRU); err != nil {
			return err
		}
	}
	return nil
}

// hcSigsysFn is the handler body: decode siginfo/ucontext, run the hook,
// execute (or emulate) the call, write the result into the saved context.
func (s *SUD) hcSigsysFn(k *kernel.Kernel, t *kernel.Thread) error {
	st, err := stateOf(t.Proc)
	if err != nil {
		return err
	}
	as := t.Proc.AS
	ctx := &t.Core.Ctx
	siginfoAddr := ctx.R[cpu.RSI]
	uctxAddr := ctx.R[cpu.RDX]

	nr, err := as.KLoadU64(siginfoAddr + kernel.SigInfoSyscall)
	if err != nil {
		return err
	}
	callAddr, err := as.KLoadU64(siginfoAddr + kernel.SigInfoCallAddr)
	if err != nil {
		return err
	}
	site := callAddr - uint64(cpu.SyscallInstLen)

	call := &interpose.Call{
		Kernel:    k,
		Thread:    t,
		Num:       nr,
		Site:      site,
		Mechanism: interpose.MechSUD,
	}
	interpose.Phase(call, kernel.PhHandler)
	for i, r := range cpu.SyscallArgRegs {
		v, err := as.KLoadU64(uctxAddr + kernel.UctxRegs + uint64(8*int(r)))
		if err != nil {
			return err
		}
		call.Args[i] = v
	}
	st.stats.SUD++
	interpose.Observe(call)

	var ret uint64
	emulated := false
	origNum := call.Num
	if s.Config.Hook != nil {
		interpose.Phase(call, kernel.PhHook)
		ret, emulated = s.Config.Hook(call)
	}
	if emulated {
		interpose.Resolve(call, call.Num, true)
		interpose.Phase(call, kernel.PhEmulate)
	} else if call.Num != origNum {
		interpose.Resolve(call, call.Num, false)
	}
	if !emulated {
		interpose.Phase(call, kernel.PhForward)
		if call.Num == kernel.SysClone {
			// See interpose.EmulateClone: the child must not resume
			// inside the do-syscall stub with a frameless stack.
			ret = interpose.EmulateClone(k, t, call.Args, callAddr, nil)
		} else {
			execArgs := call.Args
			if s.Seccomp {
				// Tag the re-execution so the filter lets it through.
				execArgs[5] = seccompCookie
			}
			var err error
			ret, err = ExecFrame(k, t, st.frameAddr, st.doSyscall, call.Num, execArgs)
			if err == kernel.ErrGuestWouldBlock {
				// Blocking call: resume the application at the trapped
				// instruction so it retries (and re-traps) once woken.
				interpose.Phase(call, kernel.PhHandlerRet)
				return as.KStoreU64(uctxAddr+kernel.UctxRIP, site)
			}
			if err != nil {
				return err
			}
		}
	}
	if s.Config.ResultHook != nil {
		ret = s.Config.ResultHook(call, ret)
	}
	interpose.Phase(call, kernel.PhHandlerRet)
	// Emulate the return by rewriting the saved context's RAX.
	return as.KStoreU64(uctxAddr+kernel.UctxRegs+uint64(8*int(cpu.RAX)), ret)
}

// ExecFrame writes a 7-word syscall frame (number + six arguments) and
// executes it through a do-syscall stub inside an allowlisted range. It
// is shared by the SUD-style interposers (sud, lazypoline, K23's
// fallback).
func ExecFrame(k *kernel.Kernel, t *kernel.Thread, frameAddr, stub uint64,
	nr uint64, args [6]uint64) (uint64, error) {
	as := t.Proc.AS
	if err := as.KStoreU64(frameAddr, nr); err != nil {
		return 0, err
	}
	for i, a := range args {
		if err := as.KStoreU64(frameAddr+uint64(8*(i+1)), a); err != nil {
			return 0, err
		}
	}
	return k.CallGuestInfra(t, stub, [6]uint64{})
}
