// Package rr is the deterministic record/replay engine: it records the
// minimal nondeterminism frontier of one simulated-machine run (initial
// virtual clock, injected workload payload, chaos-injector decision
// stream, run configuration), takes periodic whole-world checkpoints
// through kernel.Checkpoint, and replays the run — from the beginning or
// from any checkpoint — bit-identically. On top of the recording it
// offers time-travel: seeking to an arbitrary event ordinal by restoring
// the nearest checkpoint and re-executing forward, reverse queries over
// the recorded event stream ("last write to fd N before seq S"), and a
// divergence bisector that localizes the first mismatch between two
// recordings to a checkpoint window and an event ordinal.
//
// The engine's correctness contract is frontier sufficiency: a replay
// consumes only what the recording carries — it re-derives nothing from
// the original seed — so if any source of nondeterminism escaped the
// frontier, replay hashes diverge and the rrtest battery fails.
package rr

import "k23/internal/kernel"

// Canonical drive-loop constants. Replay equivalence requires the
// re-execution to issue the exact Run-slice sequence the recording did
// (a slice boundary restarts the scheduler's round-robin sweep, so
// slicing is observable for multithreaded guests): every rr execution
// path — record, replay, replay-from-checkpoint, seek — uses these.
const (
	// PollSlice is the Run slice while waiting for a server to listen.
	PollSlice = 10_000
	// PollTries bounds the listen-poll loop.
	PollTries = 5_000
	// Slice is the main-loop Run slice. Checkpoints land only on slice
	// boundaries, so the slice also bounds checkpoint placement
	// granularity; it is deliberately finer than the fleet executor's
	// cancellation slice (the scheduler's own per-round bookkeeping
	// dwarfs the per-slice overhead at this size).
	Slice = 20_000
)

// DefaultMaxInsts is the per-run instruction budget when
// RunSpec.MaxInsts is zero.
const DefaultMaxInsts = 500_000_000

// DefaultCheckpointEvery is the checkpoint interval in virtual-clock
// ticks when RunSpec.CheckpointEvery is zero.
const DefaultCheckpointEvery = 250_000

// RunSpec is the run configuration half of the nondeterminism frontier:
// everything needed to rebuild the world, plus the seed the derived
// quantities (initial clock, payload, chaos stream) were drawn from.
// Replays do not consult the seed — they use the derived values stored
// in the Recording — which is what the recorded-frontier regression
// test exploits to prove the frontier is sufficient.
type RunSpec struct {
	// Name labels the run in reports.
	Name string `json:"name"`
	// Mechanism is the interposer variant (variants.ByName); empty means
	// native execution.
	Mechanism string `json:"mechanism,omitempty"`
	// Path and Argv name the program to boot.
	Path string   `json:"path"`
	Argv []string `json:"argv"`
	Env  []string `json:"env,omitempty"`
	// Server marks a workload driven by an injected client connection.
	Server bool `json:"server,omitempty"`
	// Requests is the number of requests per injected connection.
	Requests int `json:"requests,omitempty"`
	// Seed individualizes the machine (fleet-compatible derivation).
	Seed uint64 `json:"seed"`
	// Chaos, when non-nil, arms deterministic fault injection.
	Chaos *kernel.ChaosProfile `json:"chaos,omitempty"`
	// ChaosSeed salts the chaos seed derivation (Seed ^ ChaosSeed).
	ChaosSeed uint64 `json:"chaos_seed,omitempty"`
	// MaxInsts bounds the run; 0 means DefaultMaxInsts.
	MaxInsts uint64 `json:"max_insts,omitempty"`
	// CheckpointEvery is the checkpoint interval in virtual-clock ticks;
	// 0 means DefaultCheckpointEvery, negative intervals are invalid.
	CheckpointEvery uint64 `json:"checkpoint_every,omitempty"`
}

func (s RunSpec) maxInsts() uint64 {
	if s.MaxInsts == 0 {
		return DefaultMaxInsts
	}
	return s.MaxInsts
}

func (s RunSpec) checkpointEvery() uint64 {
	if s.CheckpointEvery == 0 {
		return DefaultCheckpointEvery
	}
	return s.CheckpointEvery
}

// splitmix64 is the seed-expansion PRNG, matching the fleet executor's
// derivation so a recorded machine equals its fleet twin.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seedPayload derives the deterministic request payload from the seed
// (fleet-compatible).
func seedPayload(seed uint64, n int) []byte {
	b := make([]byte, n)
	s := splitmix64(seed)
	for i := range b {
		s = splitmix64(s)
		b[i] = 'A' + byte(s%26)
	}
	return b
}

// deriveVClock0 is the fleet executor's initial-clock derivation.
func deriveVClock0(seed uint64) uint64 { return splitmix64(seed) % (1 << 40) }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// FNV is a resumable FNV-1a accumulator: its value can be saved at a
// checkpoint and restored before re-execution, so a replay from
// checkpoint i finishes with the same final hash as the full run. It is
// the recorder's step and event hash, and the fleet executor's.
type FNV struct{ h uint64 }

// NewFNV returns an accumulator holding the FNV-1a offset basis.
func NewFNV() FNV { return FNV{h: fnvOffset} }

// Sum64 returns the accumulated hash.
func (f *FNV) Sum64() uint64 { return f.h }

// fnvPow[k] is fnvPrime^k mod 2^64. FNV-1a xors each byte in before it
// multiplies, and a zero byte xors in nothing, so k zero bytes in a row
// fold into one multiply by fnvPow[k].
var fnvPow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// WriteU64 hashes each word as its 8 little-endian bytes. Bytes are
// taken one at a time up to the highest non-zero one; the zero bytes
// above it cost one multiply, which gives the byte-wise result exactly
// because multiplication mod 2^64 is associative.
func (f *FNV) WriteU64(vs ...uint64) {
	h := f.h
	for _, v := range vs {
		left := 8
		for ; v != 0; v >>= 8 {
			h = (h ^ (v & 0xff)) * fnvPrime
			left--
		}
		h *= fnvPow[left]
	}
	f.h = h
}

// WriteBytes hashes b byte by byte.
func (f *FNV) WriteBytes(b []byte) {
	h := f.h
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	f.h = h
}

// digest is a one-shot FNV-1a over a byte string.
func digest(b []byte) uint64 {
	h := NewFNV()
	h.WriteBytes(b)
	return h.h
}
