package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"repro/internal/mathx"
)

// abRun is one ntcbench result line: its correctness and its
// end-to-end metrics.
type abRun struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// abSide is one side of an A/B comparison: its runs in run order and
// the host and commit its first full record names.
type abSide struct {
	runs []abRun
	host map[string]any
}

// readABSide reads the concatenated standard output of ntcbench runs:
// each run prints a full record (which carries "host") and then its
// result line (which carries "metrics"). Other lines are ignored.
func readABSide(path string) (abSide, error) {
	f, err := os.Open(path)
	if err != nil {
		return abSide{}, err
	}
	defer f.Close()
	var side abSide
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 16<<20)
	for line := 1; sc.Scan(); line++ {
		var probe map[string]json.RawMessage
		if json.Unmarshal(sc.Bytes(), &probe) != nil {
			continue
		}
		if raw, ok := probe["host"]; ok && side.host == nil {
			if err := json.Unmarshal(raw, &side.host); err != nil {
				return abSide{}, fmt.Errorf("%s:%d: host: %w", path, line, err)
			}
		}
		if _, ok := probe["metrics"]; ok {
			var r abRun
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				return abSide{}, fmt.Errorf("%s:%d: %w", path, line, err)
			}
			side.runs = append(side.runs, r)
		}
	}
	if err := sc.Err(); err != nil {
		return abSide{}, err
	}
	if len(side.runs) == 0 {
		return abSide{}, fmt.Errorf("no ntcbench result lines in %s", path)
	}
	return side, nil
}

// abReport compares paired base and head runs of one workload (run i
// of each side is pair i). For every metric the runs report — all of
// them lower-is-better — it prints each side's quartiles, how many
// pairs head won, the gap between the medians against the base
// interquartile range, and the two-sided Mann–Whitney U p-value. It
// fails when the pair counts differ or any run is not correct.
func abReport(w io.Writer, base, head abSide) error {
	if len(base.runs) != len(head.runs) {
		return fmt.Errorf("a/b: %d base runs but %d head runs; pairs must match", len(base.runs), len(head.runs))
	}
	fmt.Fprintf(w, "pairs: %d\n", len(base.runs))
	fmt.Fprintf(w, "base: %s\nhead: %s\n", describeHost(base.host), describeHost(head.host))

	names := map[string]bool{}
	for _, side := range []abSide{base, head} {
		for _, r := range side.runs {
			for name := range r.Metrics {
				names[name] = true
			}
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tbase q1/median/q3\thead q1/median/q3\thead wins\tmedian gap base-head\tbase IQR\tgap > IQR\tMann-Whitney p")
	for _, name := range sorted {
		b, h := values(base.runs, name), values(head.runs, name)
		if len(b) != len(base.runs) || len(h) != len(head.runs) {
			fmt.Fprintf(tw, "%s\t(missing from some runs)\n", name)
			continue
		}
		wins := 0
		for i := range b {
			if h[i] < b[i] {
				wins++
			}
		}
		bq, hq := mathx.Quartiles(b), mathx.Quartiles(h)
		gap, iqr := bq[1]-hq[1], bq[2]-bq[0]
		_, p := mathx.MannWhitneyU(b, h)
		fmt.Fprintf(tw, "%s\t%.4g/%.4g/%.4g\t%.4g/%.4g/%.4g\t%d/%d\t%+.4g (head %+.1f%%)\t%.4g\t%v\t%.3g\n",
			name, bq[0], bq[1], bq[2], hq[0], hq[1], hq[2], wins, len(b),
			gap, 100*(hq[1]/bq[1]-1), iqr, gap > iqr, p)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	var bad []string
	for _, side := range []struct {
		name string
		runs []abRun
	}{{"base", base.runs}, {"head", head.runs}} {
		for i, r := range side.runs {
			if !r.Correct || r.Failed != 0 {
				bad = append(bad, fmt.Sprintf("%s run %d (correct %v, failed %d)", side.name, i+1, r.Correct, r.Failed))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("a/b: runs not correct: %v", bad)
	}
	fmt.Fprintf(w, "every run correct with failed 0\n")
	return nil
}

// values returns one metric's value from every run that reports it.
func values(runs []abRun, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// describeHost renders an ntcbench host record on one line.
func describeHost(h map[string]any) string {
	if h == nil {
		return "host unknown"
	}
	return fmt.Sprintf("commit %v, %v, nproc %v, GOMAXPROCS %v, %v %v/%v",
		h["commit"], h["cpu"], h["nproc"], h["gomaxprocs"], h["go"], h["goos"], h["goarch"])
}
