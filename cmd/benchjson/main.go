// Command benchjson converts `go test -bench` output into a stable
// JSON snapshot (benchstat-style ns/op per benchmark) and gates
// regressions against a committed baseline — the perf trajectory of
// the repo, recorded per commit by CI.
//
//	go test -run '^$' -bench . -benchtime 3x -count 3 ./... | benchjson -out BENCH_$(git rev-parse HEAD).json
//	benchjson -in bench.txt -baseline BENCH_baseline.json -max-regression 25
//
// Conversion keeps the minimum ns/op across -count repetitions (the
// least-noise estimate: the fastest observed run is the one with the
// least interference) and strips the GOMAXPROCS suffix from benchmark
// names so snapshots compare across machines. Runs taken with
// -benchmem also record B/op and allocs/op (minimum across
// repetitions); a snapshot distinguishes "0 B/op" from "not measured".
//
// The gate fails (non-zero exit) when any baseline benchmark regresses
// by more than -max-regression percent, or disappeared from the
// current run — a deleted benchmark must update the baseline, never
// silently shrink the gate's coverage. Memory metrics gate the same
// way wherever the baseline recorded them, with one stricter rule: a
// baseline of 0 B/op or 0 allocs/op is an allocation-freeness claim,
// and ANY current allocation fails regardless of percentage. New
// benchmarks pass and are reported, so the baseline can be refreshed
// deliberately.
//
// With -ab-base and -ab-head it instead compares two sides of an
// ntcbench A/B run (scripts/ab.sh): each file is the concatenated
// output of one side's runs, run i of each side forming pair i.
//
//	benchjson -ab-base base.out -ab-head head.out
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// Entry is one benchmark's snapshot.
type Entry struct {
	// NsPerOp is the minimum ns/op observed across repetitions.
	NsPerOp float64 `json:"ns_per_op"`

	// BPerOp and AllocsPerOp are the minimum bytes and heap
	// allocations per op across repetitions, present only when the run
	// was taken with -benchmem. Pointers keep a measured zero (a
	// genuinely allocation-free benchmark, which the gate defends
	// strictly) distinct from "not measured".
	BPerOp      *int64 `json:"b_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`

	// Runs is how many repetitions were observed.
	Runs int `json:"runs"`
}

// File is the snapshot format (BENCH_<sha>.json / BENCH_baseline.json).
type File struct {
	// Note is free-form provenance ("committed baseline", a commit id).
	Note string `json:"note,omitempty"`

	// Benchmarks maps benchmark name (GOMAXPROCS suffix stripped) to
	// its snapshot. encoding/json emits keys sorted, so the file is
	// byte-stable for one input.
	Benchmarks map[string]Entry `json:"benchmarks"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("in", "-", `benchmark output to read ("-" = stdin)`)
		out      = fs.String("out", "", "write the JSON snapshot here")
		baseline = fs.String("baseline", "", "gate against this committed snapshot")
		maxReg   = fs.Float64("max-regression", 25, "fail when a benchmark slows down by more than this percent vs the baseline")
		minNs    = fs.Float64("min-ns", 0, "gate only benchmarks whose baseline is at least this many ns/op (microbenchmarks are noise-dominated at low -benchtime)")
		minB     = fs.Float64("min-b", 0, "gate B/op only when the baseline is at least this many bytes (pool hit rates make small footprints jittery); a zero baseline always gates")
		minAlloc = fs.Float64("min-allocs", 0, "gate allocs/op only when the baseline is at least this many allocations; a zero baseline always gates")
		note     = fs.String("note", "", "provenance note stored in the snapshot")
		abBase   = fs.String("ab-base", "", "ntcbench output of an A/B run's base side (with -ab-head)")
		abHead   = fs.String("ab-head", "", "ntcbench output of an A/B run's head side (with -ab-base)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *abBase != "" || *abHead != "" {
		if *abBase == "" || *abHead == "" {
			return fmt.Errorf("-ab-base and -ab-head go together")
		}
		base, err := readABSide(*abBase)
		if err != nil {
			return err
		}
		head, err := readABSide(*abHead)
		if err != nil {
			return err
		}
		return abReport(stdout, base, head)
	}
	if *out == "" && *baseline == "" {
		return fmt.Errorf("nothing to do: pass -out and/or -baseline")
	}

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	cur, err := Parse(r)
	if err != nil {
		return err
	}
	if len(cur.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark results in %s", *in)
	}
	cur.Note = *note

	if *out != "" {
		data, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d benchmarks to %s\n", len(cur.Benchmarks), *out)
	}

	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			return err
		}
		var base File
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("parsing %s: %w", *baseline, err)
		}
		if err := Gate(stdout, base, cur, *maxReg, *minNs, *minB, *minAlloc); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "gate ok: no benchmark regressed more than %g%% vs %s\n", *maxReg, *baseline)
	}
	return nil
}

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkFig7-8   	       3	 120531431 ns/op
//	BenchmarkSweepGrid/serial-workers=1-8         	       3	  52304219 ns/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+(\d+) B/op\s+(\d+) allocs/op)?`)

// Parse reads `go test -bench` output into a snapshot, folding -count
// repetitions of one benchmark into the per-metric minimum (-benchmem
// memory columns included when present).
func Parse(r io.Reader) (File, error) {
	out := File{Benchmarks: map[string]Entry{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return File{}, fmt.Errorf("line %q: %w", sc.Text(), err)
		}
		e, seen := out.Benchmarks[m[1]]
		if !seen || ns < e.NsPerOp {
			e.NsPerOp = ns
		}
		if m[3] != "" {
			b, err := strconv.ParseInt(m[3], 10, 64)
			if err != nil {
				return File{}, fmt.Errorf("line %q: %w", sc.Text(), err)
			}
			a, err := strconv.ParseInt(m[4], 10, 64)
			if err != nil {
				return File{}, fmt.Errorf("line %q: %w", sc.Text(), err)
			}
			if e.BPerOp == nil || b < *e.BPerOp {
				e.BPerOp = &b
			}
			if e.AllocsPerOp == nil || a < *e.AllocsPerOp {
				e.AllocsPerOp = &a
			}
		}
		e.Runs++
		out.Benchmarks[m[1]] = e
	}
	return out, sc.Err()
}

// gateMem compares one memory metric (B/op or allocs/op) of one
// benchmark. A zero baseline is an allocation-freeness claim: any
// current value above it fails outright, floor and percentage
// notwithstanding (a percentage over zero is undefined anyway). A
// positive baseline under the floor is reported but not gated;
// otherwise the shared percentage threshold applies.
func gateMem(w io.Writer, name, unit string, base, cur int64, floor, maxPercent float64) (failure string) {
	if base == 0 {
		if cur > 0 {
			return fmt.Sprintf("%s: %d %s vs an allocation-free baseline", name, cur, unit)
		}
		fmt.Fprintf(w, "%s: 0 %s, allocation-free as the baseline claims\n", name, unit)
		return ""
	}
	change := (float64(cur)/float64(base) - 1) * 100
	if float64(base) < floor {
		fmt.Fprintf(w, "%s: %d %s vs %d baseline (%+.1f%%, under the %g %s gate floor)\n",
			name, cur, unit, base, change, floor, unit)
		return ""
	}
	fmt.Fprintf(w, "%s: %d %s vs %d baseline (%+.1f%%)\n", name, cur, unit, base, change)
	if change > maxPercent {
		return fmt.Sprintf("%s: %d %s vs %d baseline (%+.1f%% > %g%%)",
			name, cur, unit, base, change, maxPercent)
	}
	return ""
}

// Gate compares a current snapshot against the baseline and returns
// an error naming every benchmark that regressed beyond maxPercent or
// vanished. Benchmarks whose baseline is under minNs are reported but
// not gated — at CI's low -benchtime, microsecond-scale results are
// noise-dominated and would make the gate cry wolf. Memory metrics
// gate wherever the baseline recorded them (see gateMem), with minB
// and minAllocs as their noise floors; a current run without
// -benchmem data fails rather than silently shrinking that coverage.
// New benchmarks are reported on w but never fail the gate.
func Gate(w io.Writer, base, cur File, maxPercent, minNs, minB, minAllocs float64) error {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	fail := func(msg string) {
		if msg != "" {
			failures = append(failures, msg)
		}
	}
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			fail(fmt.Sprintf("%s: missing from the current run (update the baseline if it was removed deliberately)", name))
			continue
		}
		change := (c.NsPerOp/b.NsPerOp - 1) * 100
		if b.NsPerOp < minNs {
			fmt.Fprintf(w, "%s: %.0f ns/op vs %.0f baseline (%+.1f%%, under the %g ns gate floor)\n",
				name, c.NsPerOp, b.NsPerOp, change, minNs)
		} else {
			fmt.Fprintf(w, "%s: %.0f ns/op vs %.0f baseline (%+.1f%%)\n", name, c.NsPerOp, b.NsPerOp, change)
			if change > maxPercent {
				fail(fmt.Sprintf("%s: %.0f ns/op vs %.0f baseline (%+.1f%% > %g%%)",
					name, c.NsPerOp, b.NsPerOp, change, maxPercent))
			}
		}
		if b.BPerOp != nil {
			if c.BPerOp == nil {
				fail(fmt.Sprintf("%s: B/op missing from the current run (re-run with -benchmem)", name))
			} else {
				fail(gateMem(w, name, "B/op", *b.BPerOp, *c.BPerOp, minB, maxPercent))
			}
		}
		if b.AllocsPerOp != nil {
			if c.AllocsPerOp == nil {
				fail(fmt.Sprintf("%s: allocs/op missing from the current run (re-run with -benchmem)", name))
			} else {
				fail(gateMem(w, name, "allocs/op", *b.AllocsPerOp, *c.AllocsPerOp, minAllocs, maxPercent))
			}
		}
	}
	// New benchmarks are listed deterministically (sorted) as
	// informational lines — they never gate, but silently ignoring
	// them would let the baseline's coverage rot as benches are added.
	var fresh []string
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		fmt.Fprintf(w, "%s: new benchmark (%.0f ns/op), not in the baseline\n",
			name, cur.Benchmarks[name].NsPerOp)
	}
	if len(fresh) > 0 {
		fmt.Fprintf(w, "%d new benchmark(s) are not gated — refresh the baseline to cover them\n", len(fresh))
	}
	if len(failures) > 0 {
		msg := "performance regressions vs baseline:"
		for _, f := range failures {
			msg += "\n  " + f
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}
