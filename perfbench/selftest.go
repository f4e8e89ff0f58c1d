package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	"k23/internal/cpu"
)

// exact are the counters one round must repeat exactly for a given seed.
// Heap allocations are compared apart: Go seeds every map's hash
// function at random, so how a large map grows, and with it a few
// allocations in 10^5, differs from run to run.
type exact struct {
	Attempted, Failed, Wrong, Runs   int
	Insts, Syscalls                  uint64
	DCache                           cpu.DecodeCacheStats
	JIT                              cpu.JITStats
	Checkpoints, PagesCopied, Shared uint64
	SeekReexec                       uint64
}

func exactOf(m *meter) exact {
	return exact{
		Attempted: m.attempted, Failed: m.failed, Wrong: m.wrong, Runs: m.runs,
		Insts: m.insts, Syscalls: m.syscalls,
		DCache: m.dcache, JIT: m.jit,
		Checkpoints: m.checkpoints, PagesCopied: m.pagesCopied, Shared: m.pagesShared,
		SeekReexec: m.seekReexec,
	}
}

// allocTolerance bounds the relative allocation-count difference between
// two rounds of one seed.
const allocTolerance = 1e-4

// runSelftest checks, per workload, that one round repeats its exact
// counters under one seed, that another seed generates other inputs, that
// a deck fails the same ops under any seed, and that a wrong pinned value
// fails an op. It also checks that BENCHMARK.json declares the metrics
// and workloads this program reports.
func runSelftest(cpi map[string]uint64) error {
	if err := checkBenchmarkJSON(); err != nil {
		return err
	}
	const seed = 7
	for _, w := range workloads {
		round := func(seed uint64, traced bool, mutate func(pinTable)) (*bench, *meter, error) {
			b, err := newBench(seed, cpi)
			if err != nil {
				return nil, nil, err
			}
			b.inputs = []string{}
			if mutate != nil {
				mutate(b.pins)
			}
			if traced {
				b.tr = newTracer()
			}
			return b, b.pass(w, 0, 1), nil
		}
		// The first round in a process pays one-time initialisation.
		if _, _, err := round(seed, false, nil); err != nil {
			return err
		}
		b1, m1, err := round(seed, false, nil)
		if err != nil {
			return err
		}
		_, m2, err := round(seed, false, nil)
		if err != nil {
			return err
		}
		if a, b := exactOf(m1), exactOf(m2); a != b {
			return fmt.Errorf("%s: seed %d counters differ between rounds:\n  %+v\n  %+v", w.name, seed, a, b)
		}
		if a, b := float64(m1.mallocs), float64(m2.mallocs); a < b*(1-allocTolerance) || a > b*(1+allocTolerance) {
			return fmt.Errorf("%s: seed %d allocations differ between rounds: %.0f vs %.0f", w.name, seed, a, b)
		}
		if m1.wrong > 0 {
			return fmt.Errorf("%s: wrong outputs: %v", w.name, m1.failures)
		}
		// The traced pass counts syscalls with a hook and checks the pins.
		if _, mt, err := round(seed, true, nil); err != nil {
			return err
		} else if mt.wrong > 0 {
			return fmt.Errorf("%s: traced round: %v", w.name, mt.failures)
		}
		b3, _, err := round(seed+1, false, nil)
		if err != nil {
			return err
		}
		if reflect.DeepEqual(b1.inputs, b3.inputs) {
			return fmt.Errorf("%s: seeds %d and %d generated the same inputs", w.name, seed, seed+1)
		}
		if w.deckRounds > 0 {
			if err := checkDeck(w, seed, cpi); err != nil {
				return err
			}
		}
		_, mw, err := round(seed, false, func(t pinTable) {
			for k, p := range t {
				p.Insts[0]++
				t[k] = p
			}
		})
		if err != nil {
			return err
		}
		if mw.wrong == 0 {
			return fmt.Errorf("%s: a wrong pinned value failed no op", w.name)
		}
		fmt.Fprintf(os.Stderr, "selftest %s: ok (%d ops, %d failed, allocs %d vs %d, %+v)\n",
			w.name, m1.attempted, m1.failed, m1.mallocs, m2.mallocs, exactOf(m1))
	}
	fmt.Fprintf(os.Stderr, "selftest: ok at %s\n", time.Now().Format(time.RFC3339))
	return nil
}

// checkDeck requires one deck of w to attempt the same number of ops
// under two seeds and fail the same ones, message for message: a timed
// pass of w runs whole decks, so its op and failure counts then do not
// depend on the seed.
func checkDeck(w *workload, seed uint64, cpi map[string]uint64) error {
	var ms [2]*meter
	for i := range ms {
		b, err := newBench(seed+uint64(i), cpi)
		if err != nil {
			return err
		}
		ms[i] = b.pass(w, 0, w.deckRounds)
	}
	if ms[0].attempted != ms[1].attempted || !reflect.DeepEqual(ms[0].failures, ms[1].failures) {
		return fmt.Errorf("%s: one deck under seeds %d and %d attempted %d vs %d ops, failed %v vs %v",
			w.name, seed, seed+1, ms[0].attempted, ms[1].attempted, ms[0].failures, ms[1].failures)
	}
	return nil
}

// checkBenchmarkJSON compares BENCHMARK.json with the metric and
// workload tables above.
func checkBenchmarkJSON() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %v", err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		return fmt.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	same := func(list string, got []struct{ Name, Unit string }, want []metricSpec) error {
		if len(got) != len(want) {
			return fmt.Errorf("BENCHMARK.json %s has %d metrics, program reports %d", list, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				return fmt.Errorf("BENCHMARK.json %s[%d] is %s %s, program reports %s %s",
					list, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
		return nil
	}
	if err := same("end_to_end", spec.EndToEnd, endToEnd); err != nil {
		return err
	}
	return same("per_layer", spec.PerLayer, perLayer())
}
