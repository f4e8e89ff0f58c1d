package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// totals are a guest run's deterministic outputs.
type totals struct {
	Insts, Cycles, Syscalls uint64
}

// pin holds a configuration's pinned totals as {base, per-unit} pairs:
// a run of input size x must retire exactly base + x*per-unit of each.
// Record-replay pins are per input and have per-unit 0.
type pin struct {
	Insts    [2]uint64 `json:"insts"`
	Cycles   [2]uint64 `json:"cycles"`
	Syscalls [2]uint64 `json:"syscalls"`
}

func (p pin) at(x uint64) totals {
	return totals{
		Insts:    p.Insts[0] + x*p.Insts[1],
		Cycles:   p.Cycles[0] + x*p.Cycles[1],
		Syscalls: p.Syscalls[0] + x*p.Syscalls[1],
	}
}

type pinTable map[string]pin

//go:embed pins.json
var pinsJSON []byte

func loadPins() (pinTable, error) {
	var t pinTable
	if err := json.Unmarshal(pinsJSON, &t); err != nil {
		return nil, fmt.Errorf("pins.json: %v", err)
	}
	return t, nil
}

// goldenTable5 is the paper-table golden the syscall-storm cycle check
// reads, relative to the repository root.
const goldenTable5 = "cmd/benchtab/testdata/table5.golden"

// loadCPI reads the cycles/iter column of the Table 5 golden.
func loadCPI() (map[string]uint64, error) {
	raw, err := os.ReadFile(goldenTable5)
	if err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("%s: bad row %q", goldenTable5, line)
		}
		v, err := strconv.ParseFloat(f[3], 64)
		if err != nil || v != float64(uint64(v)) {
			return nil, fmt.Errorf("%s: bad cycles/iter in %q", goldenTable5, line)
		}
		out[f[0]] = uint64(v)
	}
	return out, nil
}

// capture collects the totals of pin-mode runs by key and input size.
type capture map[string]map[uint64]totals

// writePins runs every configuration at several input sizes with the
// syscall-counting hook installed, fits each to base + x*per-unit,
// checks the fit exactly on a third size, and prints the table.
func writePins(cpi map[string]uint64) error {
	b := &bench{rng: &rng{}, decks: map[string][]int{}, cpi: cpi, tr: newTracer(), m: newMeter(), capture: capture{}}
	var err error
	if b.probes, err = compileProbe(); err != nil {
		return err
	}
	for _, mech := range stormMechs {
		for _, n := range []int{stormMinIters, stormMinIters + 1, stormMaxIters - 1} {
			stormRun(b, mech, n)
		}
	}
	for _, cfg := range serverConfigs() {
		app, _ := serverAppOf(cfg)
		for _, n := range []int{app.minN, app.minN + 1, app.minN + app.step*app.sizes - 1} {
			serverRun(b, cfg, n, make([]byte, 64))
		}
	}
	for _, mech := range rrMechs {
		for _, seed := range rrSeeds {
			for _, reqs := range rrRequests {
				rrRun(b, mech, seed, reqs, nil)
			}
		}
	}
	if b.m.failed > 0 {
		return fmt.Errorf("%d pin runs failed: %v", b.m.failed, b.m.failures)
	}
	t := pinTable{}
	for key, runs := range b.capture {
		xs := make([]uint64, 0, len(runs))
		for x := range runs {
			xs = append(xs, x)
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		if len(xs) == 1 {
			r := runs[xs[0]]
			t[key] = pin{Insts: [2]uint64{r.Insts}, Cycles: [2]uint64{r.Cycles}, Syscalls: [2]uint64{r.Syscalls}}
			continue
		}
		fit := func(f func(totals) uint64) ([2]uint64, error) {
			x1, x2 := xs[0], xs[len(xs)-1]
			y1, y2 := f(runs[x1]), f(runs[x2])
			if (y2-y1)%(x2-x1) != 0 {
				return [2]uint64{}, fmt.Errorf("%s: not linear in x: %v", key, runs)
			}
			slope := (y2 - y1) / (x2 - x1)
			base := y1 - slope*x1
			for _, x := range xs {
				if f(runs[x]) != base+slope*x {
					return [2]uint64{}, fmt.Errorf("%s: not linear at x=%d: %v", key, x, runs)
				}
			}
			return [2]uint64{base, slope}, nil
		}
		var p pin
		if p.Insts, err = fit(func(r totals) uint64 { return r.Insts }); err != nil {
			return err
		}
		if p.Cycles, err = fit(func(r totals) uint64 { return r.Cycles }); err != nil {
			return err
		}
		if p.Syscalls, err = fit(func(r totals) uint64 { return r.Syscalls }); err != nil {
			return err
		}
		if mech, ok := strings.CutPrefix(key, "syscall-storm/"); ok && cpi[mech] != 0 && p.Cycles[1] != cpi[mech] {
			return fmt.Errorf("%s: %d cycles/iter, %s has %d", key, p.Cycles[1], goldenTable5, cpi[mech])
		}
		t[key] = p
	}
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("{")
	for i, k := range keys {
		line, err := json.Marshal(map[string]pin{k: t[k]})
		if err != nil {
			return err
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Printf("  %s%s\n", line[1:len(line)-1], sep)
	}
	fmt.Println("}")
	return nil
}
