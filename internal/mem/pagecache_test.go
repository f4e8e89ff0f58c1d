package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func wantFault(t *testing.T, what string, err error, cause FaultCause) {
	t.Helper()
	var f *Fault
	if !errors.As(err, &f) || f.Cause != cause {
		t.Fatalf("%s: err = %v, want a %s fault", what, err, cause)
	}
}

// TestPageCacheInvalidation warms the page cache and then replaces or
// removes the cached page every way the page table allows: an access
// must see the new page, or the fault, never the old page.
func TestPageCacheInvalidation(t *testing.T) {
	const base = 0x40000
	a := NewAddressSpace()
	if err := a.Map(base, PageSize, PermRW, "x"); err != nil {
		t.Fatal(err)
	}
	if err := a.StoreU64(base, 1, 0); err != nil {
		t.Fatal(err)
	}
	load := func(as *AddressSpace, want uint64) {
		t.Helper()
		v, err := as.LoadU64(base, 0)
		if err != nil || v != want {
			t.Fatalf("LoadU64 = %d, %v; want %d", v, err, want)
		}
	}
	load(a, 1)

	// Map over: a fresh zeroed page replaces the cached one.
	if err := a.Map(base, PageSize, PermRW, "y"); err != nil {
		t.Fatal(err)
	}
	load(a, 0)

	// Protect changes the page in place; the cached pointer stays valid.
	if err := a.Protect(base, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	wantFault(t, "store to read-only page", a.StoreU64(base, 2, 0), CausePerm)
	if err := a.Protect(base, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}

	// Unmap: every plane faults.
	if err := a.Unmap(base, PageSize); err != nil {
		t.Fatal(err)
	}
	_, err := a.LoadU64(base, 0)
	wantFault(t, "load after unmap", err, CauseUnmapped)
	wantFault(t, "kernel store after unmap", a.KStoreU64(base, 3), CauseUnmapped)
	if g := a.Gen(base); g != 0 {
		t.Fatalf("Gen after unmap = %d, want 0", g)
	}

	// RestoreState replaces the page table wholesale.
	if err := a.Map(base, PageSize, PermRW, "z"); err != nil {
		t.Fatal(err)
	}
	if err := a.StoreU64(base, 7, 0); err != nil {
		t.Fatal(err)
	}
	snap := a.SnapshotState(nil)
	if err := a.StoreU64(base, 9, 0); err != nil {
		t.Fatal(err)
	}
	load(a, 9)
	a.RestoreState(snap)
	load(a, 7)
	if err := a.StoreU64(base, 11, 0); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(snap.Pages[PageNum(base)].Data[:]); got != 7 {
		t.Fatalf("store after restore reached the snapshot's page copy: %d", got)
	}

	// Clone: each copy sees only its own pages, whatever either cached.
	c := a.Clone()
	load(c, 11)
	if err := c.StoreU64(base, 13, 0); err != nil {
		t.Fatal(err)
	}
	load(a, 11)
	load(c, 13)
	if err := a.Unmap(base, PageSize); err != nil {
		t.Fatal(err)
	}
	load(c, 13)
}

// TestPageCacheAliasing alternates between pages whose numbers share a
// page-cache slot: each access must reach its own page.
func TestPageCacheAliasing(t *testing.T) {
	a := NewAddressSpace()
	addrs := []uint64{0x100000, 0x100000 + pageCacheSize*PageSize, 0x100000 + 2*pageCacheSize*PageSize}
	for i, addr := range addrs {
		if err := a.Map(addr, PageSize, PermRW, "alias"); err != nil {
			t.Fatal(err)
		}
		if err := a.StoreU64(addr, uint64(i+1), 0); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		for i, addr := range addrs {
			if v, err := a.LoadU64(addr, 0); err != nil || v != uint64(i+1) {
				t.Fatalf("page %d: LoadU64 = %d, %v", i, v, err)
			}
		}
	}
}

// TestSmallAccessesAtPageBoundary covers the one-page fast paths of
// Store and KStore and the fixed-width loads at every offset around a
// page boundary, with the second page writable, read-only and unmapped.
// A store bumps one generation per page it touches; a store that faults
// changes nothing and reports its last byte, as the page-by-page
// validation always did.
func TestSmallAccessesAtPageBoundary(t *testing.T) {
	const base = 0x200000
	for _, second := range []Perm{PermRW, PermRead, PermNone} {
		build := func() *AddressSpace {
			a := NewAddressSpace()
			if err := a.Map(base, PageSize, PermRW, "first"); err != nil {
				t.Fatal(err)
			}
			if second != PermNone {
				if err := a.Map(base+PageSize, PageSize, second, "second"); err != nil {
					t.Fatal(err)
				}
			}
			return a
		}
		for addr := uint64(base + PageSize - 10); addr <= base+PageSize+2; addr++ {
			for _, n := range []int{1, 2, 8} {
				for _, kernel := range []bool{false, true} {
					a := build()
					before, clock := a.StateHash(), a.genClock
					b := []byte{1, 2, 3, 4, 5, 6, 7, 8}[:n]
					var err error
					if kernel {
						err = a.KStore(addr, b)
					} else {
						err = a.Store(addr, b, 0)
					}
					last := addr + uint64(n) - 1
					pages := PageCount(addr, uint64(n))
					lastOK := second == PermRW || (kernel && second != PermNone) || PageNum(last) == PageNum(base)
					firstOK := PageNum(addr) == PageNum(base) || lastOK
					if !firstOK || !lastOK {
						var f *Fault
						if !errors.As(err, &f) || (firstOK && f.Addr != last) || (!firstOK && f.Addr != addr) {
							t.Fatalf("store(kernel=%v) of %d at %#x (second %s): err %v", kernel, n, addr, second, err)
						}
						if a.StateHash() != before {
							t.Fatalf("faulting store of %d at %#x changed the address space", n, addr)
						}
						continue
					}
					if err != nil {
						t.Fatalf("store(kernel=%v) of %d at %#x (second %s): %v", kernel, n, addr, second, err)
					}
					if got := a.genClock - clock; got != pages {
						t.Fatalf("store of %d at %#x bumped %d generations, want %d", n, addr, got, pages)
					}
					if got, _ := a.KLoad(addr, n); !bytes.Equal(got, b) {
						t.Fatalf("store of %d at %#x reads back % x", n, addr, got)
					}
				}
			}

			a := build()
			if err := a.KStore(base+PageSize-16, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}); err != nil {
				t.Fatal(err)
			}
			u64, err := a.LoadU64(addr, 0)
			b, errGeneric := a.Load(addr, 8, 0)
			if (err == nil) != (errGeneric == nil) || (err != nil && err.Error() != errGeneric.Error()) ||
				(err == nil && u64 != binary.LittleEndian.Uint64(b)) {
				t.Fatalf("LoadU64 at %#x (second %s): %#x, %v; Load % x, %v", addr, second, u64, err, b, errGeneric)
			}
			k64, err := a.KLoadU64(addr)
			kb, errGeneric := a.KLoad(addr, 8)
			if (err == nil) != (errGeneric == nil) || (err == nil && k64 != binary.LittleEndian.Uint64(kb)) {
				t.Fatalf("KLoadU64 at %#x (second %s): %#x, %v; KLoad % x, %v", addr, second, k64, err, kb, errGeneric)
			}
			u8, err := a.LoadU8(addr, 0)
			b, errGeneric = a.Load(addr, 1, 0)
			if (err == nil) != (errGeneric == nil) || (err == nil && u8 != b[0]) {
				t.Fatalf("LoadU8 at %#x (second %s): %#x, %v; Load % x, %v", addr, second, u8, err, b, errGeneric)
			}
		}
	}
}

// TestKLoadStringAcrossPages reads strings that end in the first page,
// exactly at its end, in the next page, past max, and into an unmapped
// page.
func TestKLoadStringAcrossPages(t *testing.T) {
	const base = 0x300000
	a := NewAddressSpace()
	if err := a.Map(base, 2*PageSize, PermRW, "s"); err != nil {
		t.Fatal(err)
	}
	start := uint64(base + PageSize - 4)
	if err := a.KStore(start, []byte("abcdefgh\x00")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		max  int
		want string
	}{{0, ""}, {3, "abc"}, {4, "abcd"}, {6, "abcdef"}, {64, "abcdefgh"}} {
		got, err := a.KLoadString(start, c.max)
		if err != nil || got != c.want {
			t.Fatalf("KLoadString(max %d) = %q, %v; want %q", c.max, got, err, c.want)
		}
	}
	if err := a.KStore(base+2*PageSize-3, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	_, err := a.KLoadString(base+2*PageSize-3, 16)
	wantFault(t, "string running into an unmapped page", err, CauseUnmapped)
	if got, err := a.KLoadString(base+2*PageSize-3, 3); err != nil || got != "xyz" {
		t.Fatalf("KLoadString stopping at max before the hole = %q, %v", got, err)
	}
}
