package cpu

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
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
		sort.Slice(lines, func(i, j int) bool { return lines[i].Base < lines[j].Base })
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
