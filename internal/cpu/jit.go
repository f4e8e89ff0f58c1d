package cpu

import (
	"math/bits"

	"k23/internal/mem"
)

// This file implements the trace-JIT superblock engine layered over the
// decoded-instruction cache: hot straight-line regions are "compiled"
// into superblocks — threaded-code arrays of pre-bound instruction
// closures — that execute without per-instruction fetch, decode-cache
// lookup, or switch dispatch.
//
// The correctness contract is the same observational-equivalence
// discipline the decode cache lives under, but stricter, because a
// superblock skips the per-instruction staleness machinery entirely: a
// superblock instruction may only execute when the interpreter,
// starting from the same architectural and I-cache state, would fetch
// exactly the same bytes AND observe no cross-modifying-code hazard.
// Anything else — a bumped page generation, a stale resident line, an
// unmapped code page — bails back to the interpreter BEFORE the
// affected instruction executes, so faults, CMC accounting (pitfall
// P5), and trap sites are bit-identical to interpreted execution.
//
// I-cache residency is part of the observable state (the P5 scenarios
// depend on which lines are resident), so superblock formation never
// touches the I-cache: it reads code through private build buffers.
// Execution fills resident lines lazily, in the order the interpreter
// would have fetched them (a monotone watermark over the block's
// contiguous line range), so after any exit — side exit, fault, bail,
// or budget expiry — the resident-line set is exactly what the
// interpreter would have produced.
//
// Superblocks end before any instruction that enters the kernel or
// serializes the core (SYSCALL, SYSENTER, HOSTCALL, CPUID, MFENCE,
// UD2, HLT, INT3), so interposition boundaries — traps, audit taps,
// signal delivery with RIP rewind — always occur between blocks, never
// inside one. Unconditional transfers may terminate a block;
// conditional branches side-exit when taken and fall through in-block
// otherwise. A store that hits the block's own code lines completes,
// evicts the block (via the same invalidateLine path that guards the
// decode cache), and side-exits so the interpreter refetches the new
// bytes — the same-core self-modifying-code rule.

// Superblock formation and dispatch tuning. The thresholds are
// deliberately deterministic: hotness counts depend only on the
// instruction stream, never on host time.
const (
	// jitHotThreshold is the number of anchor visits before a region is
	// compiled.
	jitHotThreshold = 16
	// jitMinBlockInsts is the smallest region worth a superblock;
	// shorter regions are negative-cached as sentinels.
	jitMinBlockInsts = 2
	// jitMaxBlockInsts caps a superblock's entries: instructions, with a
	// run of NOPs inside one line counting once.
	jitMaxBlockInsts = 64
	// jitMaxBlockLines caps the contiguous I-cache line span of one
	// block (jitMaxBlockInsts * MaxInstLen / cacheLineSize, rounded up,
	// plus a straddle line). For a block of NOP runs it is the bound
	// that binds first.
	jitMaxBlockLines = jitMaxBlockInsts*MaxInstLen/cacheLineSize + 2
	// jitMaxHot bounds the anchor-counter map; when full it is reset,
	// which is deterministic (the reset point depends only on the
	// instruction stream).
	jitMaxHot = 1 << 15
)

// JITStats counts superblock activity on one core. Like
// DecodeCacheStats these are engine-internal diagnostics: they are
// deterministic for a given workload and JIT mode, but they differ
// between modes (JIT-on execution skips the decode cache), so the
// difftest snapshot deliberately excludes them.
type JITStats struct {
	// Blocks counts superblocks compiled.
	Blocks uint64
	// Sentinels counts regions negative-cached as too small to compile.
	Sentinels uint64
	// Entries counts superblock executions entered.
	Entries uint64
	// BlockInsts counts instructions retired inside superblocks.
	BlockInsts uint64
	// Bails counts generation-check failures that returned control to
	// the interpreter (stale or rewritten code, unmapped pages).
	Bails uint64
	// SelfWrites counts side exits forced by a store into the block's
	// own code lines.
	SelfWrites uint64
	// Invalidations counts superblocks evicted by invalidateLine
	// (self-modifying or cross-modified code).
	Invalidations uint64
	// Links counts superblock entries reached through the previous
	// block's successor link instead of a block-cache lookup.
	Links uint64
}

// Add accumulates other into s.
func (s *JITStats) Add(other JITStats) {
	s.Blocks += other.Blocks
	s.Sentinels += other.Sentinels
	s.Entries += other.Entries
	s.BlockInsts += other.BlockInsts
	s.Bails += other.Bails
	s.SelfWrites += other.SelfWrites
	s.Invalidations += other.Invalidations
	s.Links += other.Links
}

// Coverage returns the fraction of totalInsts retired inside
// superblocks.
func (s JITStats) Coverage(totalInsts uint64) float64 {
	if totalInsts == 0 {
		return 0
	}
	return float64(s.BlockInsts) / float64(totalInsts)
}

// sbRes says how a superblock instruction left the core.
type sbRes uint8

const (
	// sbNext: retired; fall through to the next block instruction.
	sbNext sbRes = iota
	// sbExit: retired; control left the block (taken branch, terminal
	// transfer, or self-write side exit). RIP is already correct.
	sbExit
	// sbStop: the instruction stopped with a non-StopNone Stop (fault).
	// RIP is at the faulting site, exactly as Step leaves it.
	sbStop
)

// sbClosure executes one pre-bound instruction.
type sbClosure func(c *Core) (sbRes, Stop)

// sbInst is one compiled instruction: its pre-bound body closure, the
// retirement metadata the dispatcher charges before running it (site,
// op, cycle cost — mirroring Step's accounting order), and the index
// (into superblock.lines) of the last code line its encoding covers,
// which drives the lazy line-fill watermark.
//
// A run of one-byte NOPs inside one code line is a single sbInst: the
// dispatcher charges its first NOP as it charges any entry, the body
// retires the rest (retireNopRun), and nops counts them all, so that a
// budget can end inside the run.
type sbInst struct {
	run     sbClosure
	site    uint64
	op      Op
	nops    int32
	cost    uint64
	endLine int
}

// superblock is a compiled straight-line region. lines holds its code
// lines, contiguous from the entry's line, each with its page generation
// at build time; execution revalidates each line against it before the
// first instruction touching the line runs. A superblock with no code is a
// sentinel: the region was scanned and found too small, so the
// dispatcher stops trying to compile it.
//
// seq caches a successful full validation: when it equals the core's
// jitSeq, every code line was validated resident at the block's build
// generation earlier in the same validation epoch, and nothing can have
// changed since — epochs end at quantum boundaries (other cores may
// write memory only while this core is descheduled) and at I-cache
// flushes, and this core's own stores evict overlapping blocks eagerly
// — so re-entry skips the per-line generation checks entirely.
//
// next holds up to two successor links: blocks Run dispatched to right
// after this one. dead is set when the block leaves the block cache, so
// a link is followed only while its target is still the cached block at
// its entry.
type superblock struct {
	entry uint64
	code  []sbInst
	insts int // instructions in code, NOPs counted one by one
	lines []sbLine
	seq   uint64
	next  [2]*superblock
	dead  bool
}

// sbLine is one code line of a superblock: the line's record and its
// page generation at build time.
type sbLine struct {
	gen uint64
	ln  *cacheLine
}

// jitActive reports whether this core dispatches through superblocks.
// The JIT sits on top of the decode-cache world view, so either
// cache-off mode (difftest baseline) or the fully coherent model
// disables it too.
func (c *Core) jitActive() bool {
	return !c.JITOff && !c.DecodeCacheOff && !c.Coherent
}

// Run executes up to budget instructions, dispatching hot code through
// superblocks, and returns the first non-StopNone stop (or StopNone on
// budget expiry). It is the kernel scheduler's quantum entry point; the
// per-instruction Step remains the single-step API (and the profiler
// deopt path).
//
// In both engines a step that moves RIP on by one byte almost always
// retired a one-byte NOP, so Run then retires the rest of that NOP run
// in its I-cache line in one go (retireNops). The test costs other
// instructions only a compare of RIPs.
func (c *Core) Run(budget int) Stop {
	if !c.jitActive() {
		for budget > 0 {
			budget--
			rip := c.Ctx.RIP
			if stop := c.Step(); stop.Kind != StopNone {
				return stop
			}
			if c.Ctx.RIP == rip+1 {
				budget -= c.retireNops(budget, false)
			}
		}
		return Stop{Kind: StopNone}
	}
	// A fresh quantum starts a new validation epoch: other cores may
	// have modified code pages while this one was descheduled.
	c.jitSeq++
	// anchor marks RIPs worth counting toward compilation: quantum
	// entry, backward-transfer targets, and superblock exit points.
	anchor := true
	// prev is the block that ran last, if nothing ran after it.
	var prev *superblock
	for budget > 0 {
		rip := c.Ctx.RIP
		sb := c.successor(prev, rip)
		prev = nil
		if sb != nil {
			if len(sb.code) > 0 {
				stop, executed := c.execBlock(sb, budget)
				budget -= executed
				if stop.Kind != StopNone {
					return stop
				}
				if executed > 0 {
					anchor = true
					prev = sb
					continue
				}
				// Bailed before the first instruction: interpret one
				// instruction below so stale or rewritten code still
				// makes progress (and counts its CMC hazards) exactly
				// as the interpreter would.
			}
		} else if anchor {
			if c.noteHot(rip) {
				c.buildBlock(rip)
				continue
			}
		}
		anchor = false
		budget--
		stop := c.Step()
		if stop.Kind != StopNone {
			return stop
		}
		if c.Ctx.RIP == rip+1 {
			budget -= c.retireNops(budget, true)
		} else if c.Ctx.RIP <= rip {
			anchor = true
		}
	}
	return Stop{Kind: StopNone}
}

// retireNops retires the run of one-byte NOPs at RIP, up to the end of
// RIP's I-cache line and at most budget of them, exactly as stepping
// them one at a time would, and returns how many it retired:
//
//   - the line is filled or revived as fetchByte fills it;
//   - a stale resident line (memory's generation moved on since the
//     fill) retires nothing, so Step counts its CMC hazards fetch by
//     fetch (pitfall P5); a line whose fill faults retires nothing, so
//     Step raises the fault at its site;
//   - every NOP goes through retireNopRun, which traces and charges it
//     as Step does.
//
// atBlocks ends the run before any RIP a superblock may be entered at
// (cacheLine.entries), where Run's per-step dispatch would have entered
// the block; so JIT engagement is the same as stepping each NOP.
func (c *Core) retireNops(budget int, atBlocks bool) int {
	if budget <= 0 {
		return 0
	}
	rip := c.Ctx.RIP
	lineNum, off := rip/cacheLineSize, rip%cacheLineSize
	end := uint64(cacheLineSize)
	ln := c.icache[lineNum]
	if ln != nil && atBlocks {
		if m := ln.entries >> off; m != 0 {
			end = off + uint64(bits.TrailingZeros64(m))
		}
	}
	if end == off {
		return 0
	}
	if ln != nil && ln.epoch == c.icEpoch {
		if ln.gen != c.AS.Gen(ln.base) {
			return 0
		}
	} else {
		var err error
		if ln, err = c.fill(lineNum); err != nil {
			return 0
		}
	}
	n := 0
	for o := off; o < end && n < budget && ln.data[o] == ByteNop; o++ {
		n++
	}
	c.retireNopRun(rip, n)
	return n
}

// retireNopRun retires n one-byte NOPs starting at site with Step's
// accounting: each is traced at its own site, then charged.
func (c *Core) retireNopRun(site uint64, n int) {
	if trace := c.StepTrace; trace != nil {
		for i := 0; i < n; i++ {
			trace(site+uint64(i), OpNop)
			c.Cycles += InstCost(OpNop)
			c.Insts++
		}
	} else {
		c.Cycles += uint64(n) * InstCost(OpNop)
		c.Insts += uint64(n)
	}
	c.Ctx.RIP = site + uint64(n)
}

// successor returns the cached block entered at rip, or nil. It follows
// prev's links first: a live linked block at rip is exactly what the
// block cache holds there. Otherwise it looks rip up in the cache and
// links a block it finds from prev.
func (c *Core) successor(prev *superblock, rip uint64) *superblock {
	if prev == nil {
		return c.jcache[rip]
	}
	for _, sb := range prev.next {
		if sb != nil && sb.entry == rip && !sb.dead {
			if len(sb.code) > 0 {
				c.JITStats.Links++
			}
			return sb
		}
	}
	sb := c.jcache[rip]
	if sb != nil {
		// Keep the first live link and let the second slot follow the
		// most recent other successor.
		if prev.next[0] == nil || prev.next[0].dead {
			prev.next[0] = sb
		} else {
			prev.next[1] = sb
		}
	}
	return sb
}

// noteHot bumps the anchor counter for rip and reports whether it
// crossed the compilation threshold.
func (c *Core) noteHot(rip uint64) bool {
	if len(c.hot) >= jitMaxHot {
		clear(c.hot)
	}
	h := c.hot[rip] + 1
	if h >= jitHotThreshold {
		delete(c.hot, rip)
		return true
	}
	c.hot[rip] = h
	return false
}

// execBlock runs sb until it ends, side-exits, stops, bails, or the
// budget is exhausted. It returns the stop (StopNone unless an
// instruction stopped) and the number of instructions retired, which is
// the growth of c.Insts: every retired instruction, NOPs included, is
// charged there once.
func (c *Core) execBlock(sb *superblock, budget int) (Stop, int) {
	c.JITStats.Entries++
	validated := sb.seq == c.jitSeq
	trace := c.StepTrace
	filled := 0
	start := c.Insts
	// Entries before end fit the budget whole, so the loop checks no
	// budget; tail NOPs of the NOP run at end retire after it.
	end, tail := len(sb.code), 0
	if budget < sb.insts {
		end, tail = sb.clamp(budget)
	}
	for i := 0; i < end; i++ {
		si := &sb.code[i]
		// Lazy line fill: validate (and make resident) every code line
		// this instruction's encoding covers, in fetch order, exactly
		// when the interpreter's fetch would have. Skipped entirely when
		// the block already fully validated in this epoch.
		if !validated && filled <= si.endLine && !c.sbValidateTo(sb, &filled, si.endLine) {
			return c.sbLeave(start, Stop{Kind: StopNone})
		}
		// Retirement accounting in Step's order: trace, charge, execute.
		if trace != nil {
			trace(si.site, si.op)
		}
		c.Cycles += si.cost
		c.Insts++
		switch res, stop := si.run(c); res {
		case sbExit:
			return c.sbLeave(start, Stop{Kind: StopNone})
		case sbStop:
			return c.sbLeave(start, stop)
		}
	}
	if tail > 0 {
		si := &sb.code[end]
		if validated || c.sbValidateTo(sb, &filled, si.endLine) {
			c.retireNopRun(si.site, tail)
		}
	}
	return c.sbLeave(start, Stop{Kind: StopNone})
}

// sbLeave books the instructions retired since Insts was start as block
// instructions and returns them with stop.
func (c *Core) sbLeave(start uint64, stop Stop) (Stop, int) {
	n := c.Insts - start
	c.JITStats.BlockInsts += n
	return stop, int(n)
}

// sbValidateTo validates sb's code lines from *filled through last, in
// order, counting a bail when one fails.
func (c *Core) sbValidateTo(sb *superblock, filled *int, last int) bool {
	for ; *filled <= last; *filled++ {
		if !c.sbValidateLine(sb, *filled) {
			c.JITStats.Bails++
			return false
		}
		if *filled+1 == len(sb.lines) {
			sb.seq = c.jitSeq
		}
	}
	return true
}

// clamp returns how many of sb's entries fit budget instructions whole,
// and how many NOPs of the NOP run after them fit too.
func (sb *superblock) clamp(budget int) (end, tail int) {
	for i := range sb.code {
		n := max(int(sb.code[i].nops), 1)
		if n > budget {
			// Only a NOP run can be cut: for any other entry n is 1
			// and budget is 0.
			return i, budget
		}
		budget -= n
	}
	return len(sb.code), 0
}

// sbValidateLine checks (and, if needed, fills) code line index idx of
// sb, reporting whether the superblock may keep executing. The rules
// mirror lookupDecoded's per-line revalidation:
//
//   - line resident with a different generation than at build time: the
//     resident bytes are not the block's bytes — evict and bail.
//   - line resident at build generation but memory has moved on: the
//     interpreter would execute these stale bytes and count the CMC
//     hazard per instruction (pitfall P5); bail WITHOUT evicting so it
//     does exactly that.
//   - line not resident: refill from memory, installing the line (the
//     interpreter's fetch side effect). A fetch fault bails — the
//     interpreter reproduces the fault at the correct site. A refill at
//     a different generation than build time evicts and bails.
func (c *Core) sbValidateLine(sb *superblock, idx int) bool {
	sl := sb.lines[idx]
	ln := sl.ln
	if ln.epoch == c.icEpoch {
		if ln.gen != sl.gen {
			c.evictBlock(sb)
			return false
		}
		return ln.gen == c.AS.Gen(ln.base)
	}
	if c.fillRec(ln) != nil {
		return false
	}
	if ln.gen != sl.gen {
		c.evictBlock(sb)
		return false
	}
	return true
}

// evictBlock drops sb from the block cache and marks it dead, so no link
// enters it again. Per-line index entries are cleaned lazily, as the
// decode cache does: a listed RIP whose block is already gone is skipped
// at invalidation time.
func (c *Core) evictBlock(sb *superblock) {
	if c.jcache[sb.entry] == sb {
		delete(c.jcache, sb.entry)
		sb.dead = true
		if len(sb.code) > 0 {
			c.JITStats.Invalidations++
		}
	}
}

// jitIndexLine records that the block entered at rip covers line l and
// returns the line's record.
func (c *Core) jitIndexLine(l, rip uint64) *cacheLine {
	ln := c.record(l)
	ln.sb = addRIP(ln.sb, rip)
	return ln
}

// jitIncludable reports whether op may execute inside a superblock.
// The list is a whitelist so any future op defaults to the
// interpreter. Excluded: kernel entries and serialization points
// (SYSCALL, SYSENTER, HOSTCALL, CPUID, MFENCE), and stop-raising ops
// (UD2, HLT, INT3) — blocks end BEFORE them, which is what guarantees
// traps, audit taps and signal delivery happen at block boundaries.
func jitIncludable(op Op) bool {
	switch op {
	case OpNop, OpRdtsc, OpWrpkru, OpRdpkru, OpRdfsbase, OpWrfsbase,
		OpMovImm, OpMovImm32, OpMovRR,
		OpAdd, OpSub, OpXor, OpAnd, OpOr, OpMul, OpAddImm, OpShl, OpShr,
		OpCmp, OpCmpImm, OpTest,
		OpLoad, OpLoadB, OpStore, OpStoreB, OpStoreW,
		OpPush, OpPop,
		OpCall, OpCallReg, OpJmp, OpJmpReg, OpRet,
		OpJz, OpJnz, OpJl, OpJge, OpJle, OpJg:
		return true
	}
	return false
}

// jitTerminal reports whether op unconditionally transfers control and
// therefore ends the block (as its last instruction).
func jitTerminal(op Op) bool {
	switch op {
	case OpCall, OpCallReg, OpJmp, OpJmpReg, OpRet:
		return true
	}
	return false
}

// buildBlock scans the straight-line region at entry and installs a
// superblock (or a sentinel when the region is too small). Scanning
// reads code through private buffers — never through the I-cache — and
// records each line's page generation, which execution later
// revalidates. Lines are contiguous from the entry line, so the
// execution watermark can fill them in order.
func (c *Core) buildBlock(entry uint64) {
	firstLine := entry / cacheLineSize
	var gens [jitMaxBlockLines]uint64
	var data [jitMaxBlockLines][cacheLineSize]byte
	fetched := 0

	readByte := func(addr uint64) (byte, bool) {
		li := int(addr/cacheLineSize) - int(firstLine)
		if li < 0 || li >= jitMaxBlockLines {
			return 0, false
		}
		for fetched <= li {
			base := (firstLine + uint64(fetched)) * cacheLineSize
			gen, err := c.AS.FetchLine(base, data[fetched][:])
			if err != nil {
				return 0, false
			}
			gens[fetched] = gen
			fetched++
		}
		return data[li][addr%cacheLineSize], true
	}

	// A run of NOPs inside one line is one scanned entry (n NOPs) and
	// counts once against jitMaxBlockInsts, so one block covers a
	// trampoline sled's tail; jitMaxBlockLines still bounds the block.
	type scanned struct {
		inst Inst
		site uint64
		n    int
	}
	var insts []scanned
	total := 0 // instructions scanned, NOPs counted one by one
	addr := entry
scan:
	for len(insts) < jitMaxBlockInsts {
		b0, ok := readByte(addr)
		if !ok {
			break
		}
		var buf [MaxInstLen]byte
		buf[0] = b0
		n, needSecond := EncodedLen(b0, 0, 1)
		if needSecond {
			b1, ok := readByte(addr + 1)
			if !ok {
				break
			}
			buf[1] = b1
			n, _ = EncodedLen(b0, b1, 2)
		}
		if n <= 0 {
			break
		}
		for i := 1; i < n; i++ {
			bi, ok := readByte(addr + uint64(i))
			if !ok {
				break scan
			}
			buf[i] = bi
		}
		inst, err := Decode(buf[:n])
		if err != nil {
			break
		}
		if !jitIncludable(inst.Op) {
			break
		}
		total++
		if inst.Op == OpNop && len(insts) > 0 {
			if p := &insts[len(insts)-1]; p.inst.Op == OpNop && p.site/cacheLineSize == addr/cacheLineSize {
				p.n++
				addr++
				continue
			}
		}
		insts = append(insts, scanned{inst: inst, site: addr, n: 1})
		addr += uint64(inst.Len)
		if jitTerminal(inst.Op) {
			break
		}
	}

	if total < jitMinBlockInsts {
		c.jcache[entry] = &superblock{entry: entry}
		c.jitIndexLine(firstLine, entry)
		c.JITStats.Sentinels++
		return
	}
	last := insts[len(insts)-1]
	lastLine := (last.site + uint64(last.n*last.inst.Len) - 1) / cacheLineSize
	sb := &superblock{entry: entry, lines: make([]sbLine, lastLine-firstLine+1)}
	for i := range sb.lines {
		sb.lines[i] = sbLine{gen: gens[i], ln: c.jitIndexLine(firstLine+uint64(i), entry)}
	}
	sb.lines[0].ln.entries |= 1 << (entry % cacheLineSize)
	for _, s := range insts {
		si := sbInst{
			site:    s.site,
			op:      s.inst.Op,
			cost:    InstCost(s.inst.Op),
			endLine: int((s.site+uint64(s.n*s.inst.Len)-1)/cacheLineSize) - int(firstLine),
		}
		if s.inst.Op == OpNop {
			si.nops = int32(s.n)
			si.run = nopRunBody(s.site, s.n)
		} else {
			si.run = bindInst(s.inst, s.site, firstLine, lastLine)
		}
		sb.code = append(sb.code, si)
	}
	sb.insts = total
	c.jcache[entry] = sb
	c.JITStats.Blocks++
}

// nopRunBody returns the body of a run of n NOPs at site: the dispatcher
// has traced and charged the first, the body retires the rest.
func nopRunBody(site uint64, n int) sbClosure {
	return func(c *Core) (sbRes, Stop) {
		c.retireNopRun(site+1, n-1)
		return sbNext, Stop{}
	}
}

// bindInst compiles one instruction into a body closure with its
// operands, site and successor RIP pre-bound. The dispatcher performs
// the retirement prologue (StepTrace, cycle/instruction accounting)
// before calling the body; the body replays Step's op semantics
// exactly: identical fault behaviour (the instruction retires, RIP
// stays at the site), identical RIP updates.
func bindInst(inst Inst, site uint64, firstLine, lastLine uint64) sbClosure {
	op := inst.Op
	a, b := inst.A, inst.B
	imm := inst.Imm
	uimm := uint64(imm)
	next := site + uint64(inst.Len)

	// overlaps reports whether a completed store touched the block's
	// own code lines; such a store evicted the block via invalidateLine,
	// so the closure side-exits and the interpreter refetches.
	overlaps := func(addr uint64, n int) bool {
		lo := addr / cacheLineSize
		hi := (addr + uint64(n) - 1) / cacheLineSize
		return hi >= firstLine && lo <= lastLine
	}

	var body sbClosure
	switch op {
	case OpRdtsc:
		body = func(c *Core) (sbRes, Stop) {
			c.Ctx.R[RAX] = c.Cycles
			c.Ctx.R[RDX] = 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpWrpkru:
		body = func(c *Core) (sbRes, Stop) {
			c.PKRU = mem.PKRU(uint32(c.Ctx.R[RAX]))
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpRdpkru:
		body = func(c *Core) (sbRes, Stop) {
			c.Ctx.R[RAX] = uint64(uint32(c.PKRU))
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpRdfsbase:
		body = func(c *Core) (sbRes, Stop) {
			c.Ctx.R[a] = c.TLS
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpWrfsbase:
		body = func(c *Core) (sbRes, Stop) {
			c.TLS = c.Ctx.R[a]
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpMovImm, OpMovImm32:
		body = func(c *Core) (sbRes, Stop) {
			c.Ctx.R[a] = uimm
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpMovRR:
		body = func(c *Core) (sbRes, Stop) {
			c.Ctx.R[a] = c.Ctx.R[b]
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpAdd:
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] + c.Ctx.R[b]
			c.Ctx.R[a] = v
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpSub:
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] - c.Ctx.R[b]
			c.Ctx.R[a] = v
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpXor:
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] ^ c.Ctx.R[b]
			c.Ctx.R[a] = v
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpAnd:
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] & c.Ctx.R[b]
			c.Ctx.R[a] = v
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpOr:
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] | c.Ctx.R[b]
			c.Ctx.R[a] = v
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpMul:
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] * c.Ctx.R[b]
			c.Ctx.R[a] = v
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpAddImm:
		body = func(c *Core) (sbRes, Stop) {
			v := uint64(int64(c.Ctx.R[a]) + imm)
			c.Ctx.R[a] = v
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpShl:
		sh := uint(imm)
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] << sh
			c.Ctx.R[a] = v
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpShr:
		sh := uint(imm)
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] >> sh
			c.Ctx.R[a] = v
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpCmp:
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] - c.Ctx.R[b]
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpCmpImm:
		body = func(c *Core) (sbRes, Stop) {
			v := uint64(int64(c.Ctx.R[a]) - imm)
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpTest:
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] & c.Ctx.R[b]
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpLoad:
		body = func(c *Core) (sbRes, Stop) {
			v, err := c.AS.LoadU64(c.Ctx.R[b]+uimm, c.PKRU)
			if err != nil {
				return sbStop, faultStop(err, site)
			}
			c.Ctx.R[a] = v
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpLoadB:
		body = func(c *Core) (sbRes, Stop) {
			v, err := c.AS.LoadU8(c.Ctx.R[b]+uimm, c.PKRU)
			if err != nil {
				return sbStop, faultStop(err, site)
			}
			c.Ctx.R[a] = uint64(v)
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpStore:
		body = func(c *Core) (sbRes, Stop) {
			addr := c.Ctx.R[a] + uimm
			if err := c.storeLE(addr, c.Ctx.R[b], 8); err != nil {
				return sbStop, faultStop(err, site)
			}
			c.Ctx.RIP = next
			if overlaps(addr, 8) {
				c.JITStats.SelfWrites++
				return sbExit, Stop{}
			}
			return sbNext, Stop{}
		}
	case OpStoreB:
		body = func(c *Core) (sbRes, Stop) {
			addr := c.Ctx.R[a] + uimm
			if err := c.storeLE(addr, c.Ctx.R[b], 1); err != nil {
				return sbStop, faultStop(err, site)
			}
			c.Ctx.RIP = next
			if overlaps(addr, 1) {
				c.JITStats.SelfWrites++
				return sbExit, Stop{}
			}
			return sbNext, Stop{}
		}
	case OpStoreW:
		body = func(c *Core) (sbRes, Stop) {
			addr := c.Ctx.R[a] + uimm
			if err := c.storeLE(addr, c.Ctx.R[b], 2); err != nil {
				return sbStop, faultStop(err, site)
			}
			c.Ctx.RIP = next
			if overlaps(addr, 2) {
				c.JITStats.SelfWrites++
				return sbExit, Stop{}
			}
			return sbNext, Stop{}
		}
	case OpPush:
		body = func(c *Core) (sbRes, Stop) {
			c.Ctx.R[RSP] -= 8
			addr := c.Ctx.R[RSP]
			if err := c.storeLE(addr, c.Ctx.R[a], 8); err != nil {
				c.Ctx.R[RSP] += 8
				return sbStop, faultStop(err, site)
			}
			c.Ctx.RIP = next
			if overlaps(addr, 8) {
				c.JITStats.SelfWrites++
				return sbExit, Stop{}
			}
			return sbNext, Stop{}
		}
	case OpPop:
		body = func(c *Core) (sbRes, Stop) {
			v, err := c.AS.LoadU64(c.Ctx.R[RSP], c.PKRU)
			if err != nil {
				return sbStop, faultStop(err, site)
			}
			c.Ctx.R[RSP] += 8
			c.Ctx.R[a] = v
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpCall:
		target := uint64(int64(next) + imm)
		body = func(c *Core) (sbRes, Stop) {
			c.Ctx.R[RSP] -= 8
			if err := c.storeLE(c.Ctx.R[RSP], next, 8); err != nil {
				c.Ctx.R[RSP] += 8
				return sbStop, faultStop(err, site)
			}
			c.Ctx.RIP = target
			return sbExit, Stop{}
		}
	case OpCallReg:
		body = func(c *Core) (sbRes, Stop) {
			target := c.Ctx.R[a]
			c.Ctx.R[RSP] -= 8
			if err := c.storeLE(c.Ctx.R[RSP], next, 8); err != nil {
				c.Ctx.R[RSP] += 8
				return sbStop, faultStop(err, site)
			}
			c.Ctx.RIP = target
			return sbExit, Stop{}
		}
	case OpJmp:
		target := uint64(int64(next) + imm)
		body = func(c *Core) (sbRes, Stop) {
			c.Ctx.RIP = target
			return sbExit, Stop{}
		}
	case OpJmpReg:
		body = func(c *Core) (sbRes, Stop) {
			c.Ctx.RIP = c.Ctx.R[a]
			return sbExit, Stop{}
		}
	case OpRet:
		body = func(c *Core) (sbRes, Stop) {
			v, err := c.AS.LoadU64(c.Ctx.R[RSP], c.PKRU)
			if err != nil {
				return sbStop, faultStop(err, site)
			}
			c.Ctx.R[RSP] += 8
			c.Ctx.RIP = v
			return sbExit, Stop{}
		}
	case OpJz, OpJnz, OpJl, OpJge, OpJle, OpJg:
		target := uint64(int64(next) + imm)
		pred := jitPred(op)
		body = func(c *Core) (sbRes, Stop) {
			if pred(&c.Ctx) {
				c.Ctx.RIP = target
				return sbExit, Stop{}
			}
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	default:
		// Unreachable: jitIncludable gates formation, and buildBlock
		// binds NOP runs itself (nopRunBody). A nil body would crash
		// loudly; return an explicit always-bail closure instead.
		body = func(c *Core) (sbRes, Stop) {
			return sbStop, Stop{Kind: StopIll, Site: site}
		}
	}
	return body
}

// jitPred returns the branch predicate for a conditional jump op,
// mirroring Step's taken logic.
func jitPred(op Op) func(*Context) bool {
	switch op {
	case OpJz:
		return func(x *Context) bool { return x.ZF }
	case OpJnz:
		return func(x *Context) bool { return !x.ZF }
	case OpJl:
		return func(x *Context) bool { return x.SF }
	case OpJge:
		return func(x *Context) bool { return !x.SF }
	case OpJle:
		return func(x *Context) bool { return x.ZF || x.SF }
	default: // OpJg
		return func(x *Context) bool { return !x.ZF && !x.SF }
	}
}
