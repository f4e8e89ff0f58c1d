package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a simulator module.
// Spans of one op share Op; Parent indexes the enclosing span (-1 for
// an op's root span).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	op    int
	stack []int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.t0))})
}

func (t *tracer) end() {
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = int64(time.Since(t.t0))
}

// selfTimes returns each span name's self time (its duration minus the
// time its child spans cover) and the total of every root span.
func (t *tracer) selfTimes() (self map[string]time.Duration, total time.Duration) {
	self = map[string]time.Duration{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		} else {
			total += time.Duration(s.End - s.Start)
		}
	}
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return self, total
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Modules whose profiled self time the traced run reports. The first
// group are k23/internal packages; the go.* entries split the Go runtime
// into the parts the simulator's allocation and map habits drive.
var profileModules = []string{
	"cpu", "mem", "kernel", "loader", "disasm", "vfs", "zpoline", "lazypoline",
	"sud", "ptracer", "core", "rr", "obsv", "audit", "span", "probe",
	"go.malloc", "go.gc", "go.sync", "go.maps",
}

// moduleOf maps a profiled function name to its module: the k23/internal
// package it lives in (sub-packages roll up to their parent), one of the
// go.* runtime classes, or "other".
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "k23/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	switch {
	case strings.HasPrefix(fn, "sync.") || strings.HasPrefix(fn, "sync/atomic.") ||
		strings.HasPrefix(fn, "internal/sync.") || strings.HasPrefix(fn, "internal/runtime/atomic.") ||
		strings.HasPrefix(fn, "runtime.lock") || strings.HasPrefix(fn, "runtime.unlock"):
		return "go.sync"
	case strings.HasPrefix(fn, "internal/runtime/maps.") || strings.HasPrefix(fn, "runtime.map") ||
		strings.HasPrefix(fn, "runtime.memhash") || strings.HasPrefix(fn, "runtime.aeshash") ||
		strings.HasPrefix(fn, "runtime.strhash") || strings.HasPrefix(fn, "runtime.memequal"):
		return "go.maps"
	case strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.scan") ||
		strings.HasPrefix(fn, "runtime.markroot") || strings.HasPrefix(fn, "runtime.greyobject") ||
		strings.HasPrefix(fn, "runtime.findObject") || strings.HasPrefix(fn, "runtime.(*gcWork)") ||
		strings.HasPrefix(fn, "runtime.(*gcBits)") || strings.HasPrefix(fn, "runtime.sweep") ||
		strings.HasPrefix(fn, "runtime.(*sweepLocked)") || strings.HasPrefix(fn, "runtime.bgsweep") ||
		strings.HasPrefix(fn, "runtime.wbBuf") || strings.HasPrefix(fn, "runtime.bulkBarrier") ||
		strings.HasPrefix(fn, "runtime.typePointers") || strings.HasPrefix(fn, "runtime.(*mspan).typePointers") ||
		strings.HasPrefix(fn, "runtime.spanOf") || strings.HasPrefix(fn, "runtime.(*mspan).markBits") ||
		strings.HasPrefix(fn, "runtime.(*mspan).sweep") || strings.HasPrefix(fn, "runtime.pageIndexOf"):
		return "go.gc"
	case strings.HasPrefix(fn, "runtime.mallocgc") || strings.HasPrefix(fn, "runtime.newobject") ||
		strings.HasPrefix(fn, "runtime.makeslice") || strings.HasPrefix(fn, "runtime.growslice") ||
		strings.HasPrefix(fn, "runtime.makemap") || strings.HasPrefix(fn, "runtime.nextFreeFast") ||
		strings.HasPrefix(fn, "runtime.(*mcache)") || strings.HasPrefix(fn, "runtime.(*mcentral)") ||
		strings.HasPrefix(fn, "runtime.(*mheap)") || strings.HasPrefix(fn, "runtime.(*mspan)") ||
		strings.HasPrefix(fn, "runtime.heapSetType") || strings.HasPrefix(fn, "runtime.memclrNoHeapPointers") ||
		strings.HasPrefix(fn, "runtime.publicationBarrier") || strings.HasPrefix(fn, "runtime.(*fixalloc)") ||
		strings.HasPrefix(fn, "runtime.deductAssistCredit"):
		return "go.malloc"
	}
	return "other"
}

// profileShares decodes a gzipped pprof CPU profile and returns each
// module's share of the sampled self time, plus the sample count.
// Labelled samples (the calibration loop) are left out.
func profileShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	byMod := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 || s.labelled {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		name := "unknown"
		if fids := p.locFuncs[s.locs[0]]; len(fids) > 0 {
			name = p.strings[p.funcNames[fids[0]]]
		}
		byMod[moduleOf(name)] += v
		total += v
	}
	for k := range byMod {
		byMod[k] /= total
	}
	return byMod, len(p.samples), nil
}

type pprofSample struct {
	locs     []uint64
	values   []int64
	labelled bool
}

// pprofData is the part of a profile.proto message the rollup needs.
type pprofData struct {
	samples []pprofSample
	// locFuncs maps a location id to its function ids, innermost first.
	locFuncs  map[uint64][]uint64
	funcNames map[uint64]int64
	strings   []string
}

// decodeProfile parses the profile.proto wire format: samples (field 2,
// with their location ids, values and whether they carry labels),
// locations (4), functions (5) and the string table (6).
func decodeProfile(b []byte) (*pprofData, error) {
	p := &pprofData{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, sub []byte) error {
		switch field {
		case 2:
			var s pprofSample
			err := eachField(sub, func(f int, v uint64, sub []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, sub)
				case 2:
					for _, x := range appendVarints(nil, v, sub) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					s.labelled = true
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fids []uint64
			err := eachField(sub, func(f int, v uint64, sub []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(sub, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fids
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(sub, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated uint64 field's values, whether the
// encoder wrote it unpacked (one varint, sub == nil) or packed.
func appendVarints(dst []uint64, v uint64, sub []byte) []uint64 {
	if sub == nil {
		return append(dst, v)
	}
	for len(sub) > 0 {
		x, n := varint(sub)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return fmt.Errorf("pprof: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n == 0 {
				return fmt.Errorf("pprof: bad varint in field %d", field)
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("pprof: bad length in field %d", field)
			}
			sub := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, sub); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// sortedKeys returns m's keys ordered by descending value.
func sortedKeys[V int | float64 | time.Duration](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
