package rr

import (
	"fmt"
	"math/rand"
	"testing"

	"k23/internal/kernel"
)

// byteWiseFNV is the plain FNV-1a step loop over each word's 8
// little-endian bytes: the definition WriteU64's zero-byte fold must
// reproduce exactly.
func byteWiseFNV(h uint64, vs ...uint64) uint64 {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= fnvPrime
		}
	}
	return h
}

// sprintfHashLine is the event hash line as fmt formats it; recordings
// store hashes of exactly these bytes.
func sprintfHashLine(e *EventRec) string {
	return fmt.Sprintf("%d/%d %s %d %#x %#x %s\n",
		e.PID, e.TID, e.Kind, e.Num, e.Site, e.Ret, e.Detail)
}

func TestWriteU64MatchesByteWise(t *testing.T) {
	words := []uint64{
		0, 1, 0xff, 0x100, 1 << 56, 1 << 63, ^uint64(0),
		0x00ff00ff00ff00ff, 0xff00ff00ff00ff00, 0x0100000000000001,
		0x0000010000000100, 0x00000000deadbeef, 0x7fff_0000_0000_0000,
	}
	for k := 0; k < 64; k++ {
		words = append(words, 1<<k, (1<<k)-1)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		// Random widths so every count of high zero bytes occurs, and
		// random zero bytes below the highest non-zero one.
		v := rng.Uint64() >> (8 * rng.Intn(9))
		for b := 0; b < 8; b++ {
			if rng.Intn(2) == 0 {
				v &^= 0xff << (8 * b)
			}
		}
		words = append(words, v)
	}
	h := NewFNV()
	want := uint64(fnvOffset)
	for _, v := range words {
		one := NewFNV()
		one.WriteU64(v)
		if got, ref := one.Sum64(), byteWiseFNV(fnvOffset, v); got != ref {
			t.Fatalf("WriteU64(%#x) = %#x, byte-wise %#x", v, got, ref)
		}
		h.WriteU64(v, v>>3, ^v)
		want = byteWiseFNV(want, v, v>>3, ^v)
		if h.Sum64() != want {
			t.Fatalf("running hash diverged after %#x: %#x vs byte-wise %#x", v, h.Sum64(), want)
		}
	}
}

func TestAppendHashLineMatchesSprintf(t *testing.T) {
	var kinds []string
	for k := kernel.EvEnter; int(k) < kernel.NumEventKinds; k++ {
		kinds = append(kinds, k.String())
	}
	kinds = append(kinds, "", "two words")
	details := []string{"", " ", "a b\nc", "\n", "path=/tmp/x errno=-4", "\x00\xff"}
	fields := []EventRec{
		{},
		{PID: -1, TID: -2, Num: ^uint64(0), Site: ^uint64(0), Ret: ^uint64(0)},
		{PID: 1 << 30, TID: -(1 << 30), Num: 1, Site: 0x401000, Ret: 0xfffffffffffffffc},
		{PID: 7, TID: 7, Num: 231, Site: 0x10, Ret: 0},
	}
	var buf []byte
	for _, kind := range kinds {
		for _, d := range details {
			for _, f := range fields {
				e := f
				e.Kind, e.Detail = kind, d
				buf = e.AppendHashLine(buf[:0])
				if want := sprintfHashLine(&e); string(buf) != want {
					t.Fatalf("AppendHashLine(%+v) = %q, want %q", e, buf, want)
				}
			}
		}
	}
}

func FuzzEventHashLine(f *testing.F) {
	f.Add(0, 0, "enter", uint64(0), uint64(0), uint64(0), "")
	f.Add(-1, -1, "exit", ^uint64(0), ^uint64(0), ^uint64(0), "a b\n")
	f.Add(3, 4, "signal", uint64(11), uint64(0x401000), uint64(0xfffffffffffffff2), "SIGSEGV")
	f.Fuzz(func(t *testing.T, pid, tid int, kind string, num, site, ret uint64, detail string) {
		e := EventRec{PID: pid, TID: tid, Kind: kind, Num: num, Site: site, Ret: ret, Detail: detail}
		got := e.AppendHashLine([]byte("prefix"))
		if want := "prefix" + sprintfHashLine(&e); string(got) != want {
			t.Fatalf("AppendHashLine = %q, want %q", got, want)
		}
	})
}

// TestRecordingHashesGolden pins the final trace and event hashes of a
// chaos-armed redis recording under two mechanisms. A recording's
// stored hashes must never move within one FormatVersion: older
// recordings have to keep validating and replaying.
func TestRecordingHashesGolden(t *testing.T) {
	golden := []struct {
		mech             string
		traceH, eventH   uint64
		minCkpts, minEvs int
	}{
		{"native", 0xb3397382f787d68b, 0x7cd94f153a293dc2, 2, 50},
		{"k23-ultra+", 0xca9319a3e151e04b, 0x6e6aa7f73a8fffc2, 2, 50},
	}
	for _, g := range golden {
		t.Run(g.mech, func(t *testing.T) {
			chaos := kernel.DefaultChaosProfile()
			spec := redisSpec()
			spec.Mechanism = g.mech
			spec.Requests = 6
			spec.Chaos, spec.ChaosSeed = &chaos, 1
			spec.CheckpointEvery = 10_000
			s := record(t, spec)
			f := s.Rec.Final
			if f.TraceHash != g.traceH || f.EventHash != g.eventH {
				t.Fatalf("hashes moved: TraceHash %#x EventHash %#x, want %#x %#x",
					f.TraceHash, f.EventHash, g.traceH, g.eventH)
			}
			if s.NumCheckpoints() < g.minCkpts || f.Events < g.minEvs {
				t.Fatalf("recording too small to pin anything: %d checkpoints, %d events",
					s.NumCheckpoints(), f.Events)
			}
			if err := s.Rec.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}
