package cpu

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"k23/internal/mem"
)

// TestFlushedLineRevivedOrRefetched covers the two refill outcomes of the
// epoch I-cache: a flushed line over an unchanged page is revived as it
// stands, and a flushed line whose page another core has written since is
// refetched — into the same line struct — so the refill sees the fresh
// bytes without a CMC hazard.
func TestFlushedLineRevivedOrRefetched(t *testing.T) {
	as := mem.NewAddressSpace()
	if err := as.Map(0x1000, mem.PageSize, mem.PermRWX, "code"); err != nil {
		t.Fatal(err)
	}
	if err := as.KStore(0x1000, asm(Inst{Op: OpMovImm, A: RAX, Imm: 1}, Inst{Op: OpHlt})); err != nil {
		t.Fatal(err)
	}
	c := NewCore(as)
	exec := func(want uint64) *cacheLine {
		t.Helper()
		c.Ctx.RIP = 0x1000
		if s := run(t, c, 10); s.Kind != StopHalt {
			t.Fatalf("stop = %v, want halt", s.Kind)
		}
		if c.Ctx.R[RAX] != want {
			t.Fatalf("RAX = %d, want %d", c.Ctx.R[RAX], want)
		}
		ln := c.line(0x1000 / cacheLineSize)
		if ln == nil {
			t.Fatal("executed line not resident")
		}
		return ln
	}
	first := exec(1)
	gen := first.gen

	c.FlushICache()
	if c.line(0x1000/cacheLineSize) != nil {
		t.Fatal("line still resident after flush")
	}
	if ln := exec(1); ln != first || ln.gen != gen {
		t.Fatalf("unchanged line not revived: struct reused %v, gen %d -> %d", ln == first, gen, ln.gen)
	}

	// Flush, then another core rewrites the line: the refill must fetch.
	c.FlushICache()
	other := NewCore(as)
	if err := other.StoreAsSelf(0x1000, asm(Inst{Op: OpMovImm, A: RAX, Imm: 2})); err != nil {
		t.Fatal(err)
	}
	ln := exec(2)
	if ln != first {
		t.Fatal("refetch allocated a new line struct instead of reusing the flushed one")
	}
	if ln.gen == gen || ln.gen != as.Gen(0x1000) {
		t.Fatalf("refetched line gen %d, page gen %d (old %d)", ln.gen, as.Gen(0x1000), gen)
	}
	if c.CMCViolations != 0 {
		t.Fatalf("CMC violations = %d after a serialized refill", c.CMCViolations)
	}
}

// TestRestoreDropsFlushedLines rewinds the address space's generation
// clock the way an rr checkpoint restore does (AddressSpace.RestoreState
// followed by Core.RestoreState) and then stores different bytes up to
// the same generation a flushed line was filled at. The core must
// execute the new bytes: a flushed line kept across the restore would be
// revived on the generation match and replay the abandoned bytes.
func TestRestoreDropsFlushedLines(t *testing.T) {
	prog := func(v int64) []byte { return asm(Inst{Op: OpMovImm, A: RAX, Imm: v}, Inst{Op: OpHlt}) }
	as := mem.NewAddressSpace()
	if err := as.Map(0x1000, mem.PageSize, mem.PermRWX, "code"); err != nil {
		t.Fatal(err)
	}
	if err := as.KStore(0x1000, prog(1)); err != nil {
		t.Fatal(err)
	}
	c := NewCore(as)
	asSnap, coreSnap := as.SnapshotState(nil), c.SnapshotState()

	if err := as.KStore(0x1000, prog(2)); err != nil {
		t.Fatal(err)
	}
	c.Ctx.RIP = 0x1000
	if s := run(t, c, 10); s.Kind != StopHalt || c.Ctx.R[RAX] != 2 {
		t.Fatalf("abandoned future: stop %v RAX %d", s.Kind, c.Ctx.R[RAX])
	}
	abandonedGen := c.line(0x1000 / cacheLineSize).gen
	c.FlushICache()

	as.RestoreState(asSnap)
	c.RestoreState(coreSnap)
	if err := as.KStore(0x1000, prog(3)); err != nil {
		t.Fatal(err)
	}
	if g := as.Gen(0x1000); g != abandonedGen {
		t.Fatalf("test vacuous: restored page reached gen %d, flushed line was filled at %d", g, abandonedGen)
	}
	c.Ctx.RIP = 0x1000
	if s := run(t, c, 10); s.Kind != StopHalt {
		t.Fatalf("stop = %v, want halt", s.Kind)
	}
	if c.Ctx.R[RAX] != 3 {
		t.Fatalf("RAX = %d: executed bytes from before the restore, want 3", c.Ctx.R[RAX])
	}
}

// icacheGoldenHash is the hash of the CoreState.ICache that
// TestICacheSnapshotGolden's program leaves behind. It was taken with
// the I-cache that cleared its line map on every flush; the epoch
// I-cache must export exactly the same resident lines.
const icacheGoldenHash = 0xcc34fe91a32f1cb

// TestICacheSnapshotGolden runs a fixed program through a kernel-shaped
// schedule — odd-sized Run quanta, a flush at every syscall, a
// cross-core rewrite of a code line every few quanta, own stores into
// the code page — and pins the exported resident-line set under each
// engine (JIT, decode cache only, neither).
func TestICacheSnapshotGolden(t *testing.T) {
	code := asm(
		Inst{Op: OpMovImm, A: RBX, Imm: 40},
		// loop:
		Inst{Op: OpMovImm, A: RAX, Imm: 500},
		Inst{Op: OpSyscall},
		Inst{Op: OpStore, A: RDI, B: RBX, Imm: 0},
		Inst{Op: OpStoreB, A: RSI, B: RBX, Imm: 0},
		Inst{Op: OpAddImm, A: RBX, Imm: -1},
		Inst{Op: OpCmpImm, A: RBX, Imm: 0},
		Inst{Op: OpJnz, Imm: -43}, // MovImm 10, Syscall 2, Store 7, StoreB 7, AddImm 6, CmpImm 6, Jnz 5
		Inst{Op: OpMovImm, A: RAX, Imm: 0x1080},
		Inst{Op: OpJmpReg, A: RAX}, // into a NOP sled spanning three lines
	)
	nop := make([]byte, 3*cacheLineSize+1)
	for i := range nop {
		nop[i] = ByteNop
	}
	nop[len(nop)-1] = asm(Inst{Op: OpHlt})[0]

	for _, mode := range []struct {
		name              string
		jitOff, dcacheOff bool
	}{{"jit", false, false}, {"cache-only", true, false}, {"cache-off", true, true}} {
		c := smcCore(t, code)
		c.JITOff, c.DecodeCacheOff = mode.jitOff, mode.dcacheOff
		as := c.AS
		c.Ctx.R[RDI] = 0x100000 // stack page: plain data stores
		c.Ctx.R[RSI] = 0x1f00   // own stores into a code-page line never executed
		if err := as.KStore(0x1080, nop); err != nil {
			t.Fatal(err)
		}
		for q := 0; ; q++ {
			if q == 10_000 {
				t.Fatalf("%s: program did not halt", mode.name)
			}
			s := c.Run(37)
			if s.Kind == StopHalt {
				break
			}
			switch s.Kind {
			case StopNone:
				if q%5 == 0 {
					// Another core rewrites a code line with identical
					// bytes: the generation moves, the bytes do not.
					if err := as.KStore(0x1000, code[:10]); err != nil {
						t.Fatal(err)
					}
				}
			case StopSyscall:
				c.FlushICache()
			default:
				t.Fatalf("%s: unexpected stop %+v", mode.name, s)
			}
		}
		lines := c.SnapshotState().ICache
		h := fnv.New64a()
		for _, ln := range lines {
			var hdr [16]byte
			binary.LittleEndian.PutUint64(hdr[:8], ln.Base)
			binary.LittleEndian.PutUint64(hdr[8:], ln.Gen)
			h.Write(hdr[:])
			h.Write(ln.Data[:])
		}
		if got := h.Sum64(); got != icacheGoldenHash {
			t.Errorf("%s: resident I-cache hash %#x over %d lines, want %#x",
				mode.name, got, len(lines), icacheGoldenHash)
		}
	}
}

// TestLineRecordFromIndexingNotResident: compiling a block indexes it on
// every line it covers, which creates records for lines never fetched.
// Such a record must be neither resident nor revivable — not even on a
// page unmapped since, whose Gen is 0 like the record's — so fetching
// from it faults exactly as on a core that never indexed the line.
func TestLineRecordFromIndexingNotResident(t *testing.T) {
	build := func() *Core {
		as := mem.NewAddressSpace()
		for _, base := range []uint64{0x1000, 0x2000} {
			if err := as.Map(base, mem.PageSize, mem.PermRWX, "code"); err != nil {
				t.Fatal(err)
			}
		}
		nops := make([]byte, 24) // 0x1ff0..0x2007, then a HLT
		for i := range nops {
			nops[i] = ByteNop
		}
		if err := as.KStore(0x1ff0, append(nops, asm(Inst{Op: OpHlt})...)); err != nil {
			t.Fatal(err)
		}
		return NewCore(as)
	}
	c, ref := build(), build()
	c.buildBlock(0x1ff0)
	rec := c.icache[0x2000/cacheLineSize]
	if sb := c.jcache[0x1ff0]; sb == nil || len(sb.code) == 0 || rec == nil {
		t.Fatal("test vacuous: no block indexed on the line at 0x2000")
	}
	if c.line(0x1fc0/cacheLineSize) != nil || c.line(0x2000/cacheLineSize) != nil {
		t.Fatal("a line only indexed, never fetched, is resident")
	}
	if n := len(c.SnapshotState().ICache); n != 0 {
		t.Fatalf("snapshot exports %d lines, none fetched", n)
	}

	for _, core := range []*Core{c, ref} {
		if err := core.AS.Unmap(0x2000, mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	c.Ctx.RIP, ref.Ctx.RIP = 0x1ff0, 0x1ff0
	ref.JITOff = true
	s, want := runQuanta(t, c, 100, 10), runQuanta(t, ref, 100, 10)
	if !stopsEqual(s, want) || s.Kind != StopFault || s.Site != 0x2000 {
		t.Fatalf("stop %+v, want %+v (a fault at 0x2000)", s, want)
	}
	coreStatesEqual(t, "indexed-only line", c, ref)
	icacheEqual(t, "indexed-only line", c, ref)
}

// TestLineIndexBounded: another core rewrites one code line a thousand
// times, serializing this core after each rewrite, so the line's decoded
// entries and its block are dropped and rebuilt at the same RIPs every
// time. The line record lists each RIP once, however often it returns.
func TestLineIndexBounded(t *testing.T) {
	code := placed(0x1000,
		Inst{Op: OpAddImm, A: RBX, Imm: 1},
		Inst{Op: OpAddImm, A: RCX, Imm: -1},
		Inst{Op: OpCmpImm, A: RCX, Imm: 0},
		Inst{Op: OpJnz, Imm: 0x1000},
		Inst{Op: OpHlt},
	)
	for _, jitOff := range []bool{false, true} {
		c := smcCore(t, code)
		c.JITOff = jitOff
		c.Ctx.R[RCX] = 1 << 40
		for i := 0; i < 1000; i++ {
			if s := c.Run(300); s.Kind != StopNone {
				t.Fatalf("jitOff=%v: stop %+v", jitOff, s)
			}
			if err := NewCore(c.AS).StoreAsSelf(0x1000, code[:6]); err != nil {
				t.Fatal(err)
			}
			c.FlushICache()
		}
		ln := c.icache[0x1000/cacheLineSize]
		if ln == nil {
			t.Fatalf("jitOff=%v: code line has no record", jitOff)
		}
		if len(ln.dc) > 5 || len(ln.sb) > 1 {
			t.Errorf("jitOff=%v: line lists %d decoded RIPs and %d block RIPs, want at most 5 and 1",
				jitOff, len(ln.dc), len(ln.sb))
		}
		if jitOff && c.DecodeStats.Misses < 1000 || !jitOff && c.JITStats.Blocks < 1000 {
			t.Fatalf("jitOff=%v: test vacuous: %+v %+v", jitOff, c.DecodeStats, c.JITStats)
		}
	}
}
