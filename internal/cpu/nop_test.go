package cpu

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"k23/internal/mem"
)

// The tests in this file pin the bulk NOP-run paths: Run's interpreter
// retires the rest of a NOP run in its I-cache line in one go
// (retireNops), and a superblock holds each in-line NOP run as one
// entry. Every scenario runs in lockstep on four cores — Step one
// instruction at a time (the reference, which never retires in bulk),
// and Run with the JIT, with the decode cache only, and with neither —
// and after every quantum requires the same stop, registers, retirement
// counters, CMC count, resident I-cache lines and StepTrace sequence.

// nopEngine is one way of executing a core.
type nopEngine struct {
	name             string
	jitOff, cacheOff bool
	stepwise         bool // drive Step, not Run
}

var nopEngines = []nopEngine{
	{name: "step", jitOff: true, cacheOff: true, stepwise: true},
	{name: "jit"},
	{name: "cache", jitOff: true},
	{name: "nocache", jitOff: true, cacheOff: true},
}

// stepN steps c up to budget instructions, one Step at a time.
func stepN(c *Core, budget int) Stop {
	for ; budget > 0; budget-- {
		if s := c.Step(); s.Kind != StopNone {
			return s
		}
	}
	return Stop{Kind: StopNone}
}

type traceRec struct {
	rip uint64
	op  Op
}

// nopRig holds one core per nopEngines entry, all built alike.
type nopRig struct {
	t      *testing.T
	cores  []*Core
	traces [][]traceRec
}

func newNopRig(t *testing.T, build func() *Core) *nopRig {
	t.Helper()
	r := &nopRig{t: t, traces: make([][]traceRec, len(nopEngines))}
	for i, e := range nopEngines {
		c := build()
		c.JITOff, c.DecodeCacheOff = e.jitOff, e.cacheOff
		c.StepTrace = func(rip uint64, op Op) {
			r.traces[i] = append(r.traces[i], traceRec{rip, op})
		}
		r.cores = append(r.cores, c)
	}
	return r
}

func (r *nopRig) ref() *Core { return r.cores[0] }
func (r *nopRig) jit() *Core { return r.cores[1] }

// each applies f to every core, as a cross-core store or a kernel entry
// applies to each run alike.
func (r *nopRig) each(f func(c *Core)) {
	for _, c := range r.cores {
		f(c)
	}
}

// run gives every core the same budget, requires them all to agree with
// the reference, and returns the reference's stop.
func (r *nopRig) run(name string, budget int) Stop {
	t := r.t
	t.Helper()
	stops := make([]Stop, len(r.cores))
	for i, c := range r.cores {
		if nopEngines[i].stepwise {
			stops[i] = stepN(c, budget)
		} else {
			stops[i] = c.Run(budget)
		}
	}
	ref := r.ref()
	for i := 1; i < len(r.cores); i++ {
		c, n := r.cores[i], name+" "+nopEngines[i].name
		if !stopsEqual(stops[i], stops[0]) {
			t.Errorf("%s: stop %+v, step gives %+v", n, stops[i], stops[0])
		}
		coreStatesEqual(t, n, c, ref)
		icacheEqual(t, n, c, ref)
		if !slices.Equal(r.traces[i], r.traces[0]) {
			t.Errorf("%s: StepTrace differs: %d records, step gives %d", n, len(r.traces[i]), len(r.traces[0]))
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	for i := range r.traces {
		r.traces[i] = r.traces[i][:0]
	}
	return stops[0]
}

// nops returns n one-byte NOPs.
func nops(n int) []byte { return bytes.Repeat([]byte{ByteNop}, n) }

// chunk is code to store at an address.
type chunk struct {
	addr uint64
	code []byte
}

// nopCore maps pages of RWX code at each of codePages and a stack, stores
// the chunks in order, and starts the core at rip.
func nopCore(t *testing.T, codePages []uint64, chunks []chunk, rip uint64) *Core {
	t.Helper()
	as := mem.NewAddressSpace()
	for _, p := range codePages {
		if err := as.Map(p, mem.PageSize, mem.PermRWX, "code"); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.Map(0x100000, mem.PageSize, mem.PermRW, "[stack]"); err != nil {
		t.Fatal(err)
	}
	for _, ch := range chunks {
		if err := as.KStore(ch.addr, ch.code); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCore(as)
	c.Ctx.RIP = rip
	c.Ctx.R[RSP] = 0x100000 + mem.PageSize
	return c
}

// nopLoop returns a core looping over n NOPs at 0x1000.
func nopLoop(t *testing.T, n int) func() *Core {
	return func() *Core {
		code := append(nops(n), placed(0x1000+uint64(n), Inst{Op: OpJmp, Imm: 0x1000})...)
		return nopCore(t, []uint64{0x1000}, []chunk{{0x1000, code}}, 0x1000)
	}
}

// quanta are budgets that end runs mid-line and mid-block.
var quanta = []int{7, 13, 29, 61, 97, 64, 1, 200, 3, 131}

// blockNops returns the NOP count of c's superblock at entry and checks
// that each of its NOP runs lies inside one line.
func blockNops(t *testing.T, c *Core, entry uint64) int {
	t.Helper()
	sb := c.jcache[entry]
	if sb == nil {
		return 0
	}
	total := 0
	for _, si := range sb.code {
		if si.nops == 0 {
			continue
		}
		if last := si.site + uint64(si.nops) - 1; si.site/cacheLineSize != last/cacheLineSize {
			t.Errorf("block %#x: NOP run %#x..%#x crosses a line", entry, si.site, last)
		}
		total += int(si.nops)
	}
	return total
}

// TestNopRunBudgetSplit: quanta end inside NOP runs, inside lines and
// inside blocks; the bulk paths must retire exactly the budget.
func TestNopRunBudgetSplit(t *testing.T) {
	r := newNopRig(t, nopLoop(t, 200))
	for i := 0; i < 120; i++ {
		q := quanta[i%len(quanta)]
		if s := r.run(fmt.Sprintf("quantum %d (%d)", i, q), q); s.Kind != StopNone {
			t.Fatalf("stop = %+v", s)
		}
	}
	if st := r.jit().JITStats; st.Blocks == 0 || st.BlockInsts == 0 {
		t.Fatalf("test vacuous: %+v", st)
	}
}

// TestNopRunCrossesFlushedLines: between quanta the cores are
// serialized, as a kernel entry would, and another core rewrites one of
// the loop's lines with its own bytes, so the runs cross lines that are
// flushed (revived on refill) and lines whose page generation moved
// (refetched, and the blocks over them rebuilt).
func TestNopRunCrossesFlushedLines(t *testing.T) {
	r := newNopRig(t, nopLoop(t, 300))
	for i := 0; i < 150; i++ {
		q := quanta[i%len(quanta)]
		r.run(fmt.Sprintf("quantum %d (%d)", i, q), q)
		switch i % 3 {
		case 1:
			r.each(func(c *Core) { c.FlushICache() })
		case 2:
			r.each(func(c *Core) {
				if err := c.AS.KStore(0x1040, nops(cacheLineSize)); err != nil {
					t.Fatal(err)
				}
				c.FlushICache()
			})
		}
	}
	if st := r.jit().JITStats; st.Blocks == 0 || st.Bails == 0 {
		t.Fatalf("test vacuous: %+v (need blocks that bailed on a rewritten line)", st)
	}
}

// TestNopRunIntoUnmappedPage: a page of NOPs followed by an unmapped
// page. Every engine faults fetching 0x2000, after retiring the whole
// page; the kernel-shaped restart makes the page's entry hot.
func TestNopRunIntoUnmappedPage(t *testing.T) {
	r := newNopRig(t, func() *Core {
		return nopCore(t, []uint64{0x1000}, []chunk{{0x1000, nops(int(mem.PageSize))}}, 0x1000)
	})
	faults := 0
	for i := 0; i < 400 && faults < 40; i++ {
		s := r.run(fmt.Sprintf("quantum %d", i), 500)
		if s.Kind == StopNone {
			continue
		}
		if s.Kind != StopFault || s.Site != 0x2000 || s.Fault == nil || s.Fault.Addr != 0x2000 {
			t.Fatalf("stop = %+v, want a fetch fault at 0x2000", s)
		}
		if ref := r.ref(); ref.Ctx.RIP != 0x2000 {
			t.Fatalf("RIP = %#x after the fault, want 0x2000", ref.Ctx.RIP)
		}
		faults++
		r.each(func(c *Core) {
			c.FlushICache()
			c.Ctx.RIP = 0x1000
		})
	}
	if faults < 40 {
		t.Fatalf("%d faults, want 40", faults)
	}
	if st := r.jit().JITStats; st.Blocks == 0 || st.BlockInsts == 0 {
		t.Fatalf("test vacuous: %+v", st)
	}
}

// TestNopRunStaleLineCMC is P5 on a sled: another core writes an INT3
// into a resident, compiled NOP loop without serializing this one. Every
// engine keeps executing the stale NOP and counts one CMC hazard per
// fetch of it, until a flush makes the INT3 visible.
func TestNopRunStaleLineCMC(t *testing.T) {
	r := newNopRig(t, nopLoop(t, 128))
	for i := 0; i < 40; i++ {
		r.run(fmt.Sprintf("warm %d", i), quanta[i%len(quanta)])
	}
	r.each(func(c *Core) {
		if err := c.AS.KStore(0x1050, []byte{0xCC}); err != nil {
			t.Fatal(err)
		}
	})
	for i := 0; i < 40; i++ {
		if s := r.run(fmt.Sprintf("stale %d", i), quanta[i%len(quanta)]); s.Kind != StopNone {
			t.Fatalf("stale line stopped: %+v", s)
		}
	}
	if r.ref().CMCViolations == 0 {
		t.Fatal("stale sled raised no CMC hazard")
	}
	if st := r.jit().JITStats; st.Blocks == 0 || st.Bails == 0 {
		t.Fatalf("test vacuous: %+v (need a compiled block that bailed stale)", st)
	}
	r.each(func(c *Core) { c.FlushICache() })
	if s := r.run("after flush", 200); s.Kind != StopTrap || s.Site != 0x1050 {
		t.Fatalf("stop = %+v, want the INT3 at 0x1050", s)
	}
}

// sledCore is the zpoline shape: a 512-NOP sled at address 0 followed by
// `mov $handler, %r11; jmp *%r11`, and a caller at 0x10000 that calls
// into the sled at off 100 times through `call *%rax`. The handler
// returns straight to the caller.
func sledCore(t *testing.T, off int64) func() *Core {
	const caller, handler = 0x10000, 0x10100
	return func() *Core {
		sled := append(nops(512), asm(
			Inst{Op: OpMovImm, A: R11, Imm: handler},
			Inst{Op: OpJmpReg, A: R11},
		)...)
		head := asm(Inst{Op: OpMovImm, A: RBX, Imm: 100})
		loop := caller + uint64(len(head))
		code := append(head, placed(loop,
			Inst{Op: OpMovImm, A: RAX, Imm: off},
			Inst{Op: OpCallReg, A: RAX},
			Inst{Op: OpAddImm, A: RBX, Imm: -1},
			Inst{Op: OpCmpImm, A: RBX, Imm: 0},
			Inst{Op: OpJnz, Imm: int64(loop)},
			Inst{Op: OpHlt},
		)...)
		return nopCore(t, []uint64{0, caller}, []chunk{
			{0, sled},
			{caller, code},
			{handler, asm(Inst{Op: OpRet})},
		}, caller)
	}
}

// TestNopSledEntryOffsets enters the sled at its first byte, inside its
// first line, at a line's last and first bytes, and at its last NOP.
// Entered at a line's last byte, the interpreter steps that NOP and
// retires the next line's run in bulk, reviving the flushed line first.
// Once hot, one superblock covers the sled's tail through `jmp *%r11`.
func TestNopSledEntryOffsets(t *testing.T) {
	for _, off := range []int64{0, 1, 63, 64, 511} {
		t.Run(fmt.Sprint(off), func(t *testing.T) {
			r := newNopRig(t, sledCore(t, off))
			var s Stop
			for i := 0; s.Kind == StopNone; i++ {
				if i == 2000 {
					t.Fatal("program did not halt")
				}
				s = r.run(fmt.Sprintf("quantum %d", i), 10*quanta[i%len(quanta)]+1)
				// Serialize between quanta, as the kernel entry the
				// handler stands for would: the sled's lines are then
				// flushed, and revived by whichever fetch reaches them.
				r.each(func(c *Core) { c.FlushICache() })
			}
			if s.Kind != StopHalt {
				t.Fatalf("stop = %+v, want halt", s)
			}
			if want := uint64(100 * (512 - off + 2)); r.jit().JITStats.BlockInsts < want/2 {
				t.Errorf("JIT retired %d instructions in blocks, want most of the %d in the sled", r.jit().JITStats.BlockInsts, want)
			}
			sb := r.jit().jcache[uint64(off)]
			if sb == nil || len(sb.code) == 0 || sb.code[len(sb.code)-1].op != OpJmpReg {
				t.Fatalf("no superblock at sled offset %d ending in jmp *%%r11", off)
			}
			if n := blockNops(t, r.jit(), uint64(off)); n != int(512-off) {
				t.Errorf("block at %d holds %d NOPs, want %d", off, n, 512-off)
			}
		})
	}
}

// TestNopBlockOverSixtyFour: a NOP run counts once against
// jitMaxBlockInsts, so one block holds a 300-NOP loop body, one entry
// per line.
func TestNopBlockOverSixtyFour(t *testing.T) {
	r := newNopRig(t, nopLoop(t, 300))
	for i := 0; i < 100; i++ {
		r.run(fmt.Sprintf("quantum %d", i), quanta[i%len(quanta)])
	}
	sb := r.jit().jcache[0x1000]
	if sb == nil || len(sb.code) != 6 {
		t.Fatalf("block at 0x1000 = %+v, want 5 NOP runs and the jmp", sb)
	}
	if n := blockNops(t, r.jit(), 0x1000); n != 300 {
		t.Fatalf("block at 0x1000 holds %d NOPs, want 300", n)
	}
}
