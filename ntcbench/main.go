// Command ntcbench is the repository's benchmark. It runs one named
// workload for a given seed and duration, checks the program's
// outputs, and prints one JSON result line: the end-to-end metrics,
// or with -trace 1 the per-layer metrics of a traced run. See
// README.md in this directory for the workloads, the metrics and how
// each layer is measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the paper grid's seed; the pinned row digests hold
// at this seed.
const defaultSeed = 2018

// workers bounds every workload's worker goroutines and client
// connections.
const workers = 2

// workload is one named benchmark input set.
type workload struct {
	name string
	run  func(cfg runConfig, rep *report) error
}

var workloads = []workload{
	{"paper-week", runPaperWeek},
	{"fleet-grid", runFleetGrid},
	{"serve-mixed", runServeMixed},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string    // private scratch directory inside the checkout
	log     io.Writer // progress and diagnostics
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's operations, checks and metrics.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	info              map[string]any // run metadata, sample counts, layer split
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), info: make(map[string]any)}
}

// op records one operation (a row, a request, or an output check).
func (r *report) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ntcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-week, fleet-grid or serve-mixed")
	seed := fs.Int64("seed", defaultSeed, "workload seed (inputs are a pure function of it)")
	seconds := fs.Int("seconds", 20, "how long to measure")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "ntcbench: need -workload (paper-week, fleet-grid, serve-mixed), -seconds >= 1 and -trace 0|1\n")
		return 2
	}

	base := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintf(stderr, "ntcbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(base, w.name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "ntcbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1, dir: dir, log: stderr}
	rep := newReport()
	rep.info["host"] = hostInfo()
	rep.info["workload"] = w.name
	rep.info["seed"] = *seed
	rep.info["trace"] = cfg.trace
	if err := w.run(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "ntcbench: %s: %v\n", w.name, err)
		return 1
	}
	if rep.attempted == 0 {
		fmt.Fprintf(stderr, "ntcbench: %s attempted nothing\n", w.name)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "ntcbench: check failed: %s\n", p)
	}
	for name, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "ntcbench: metric %s is not a number\n", name)
			return 1
		}
	}

	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
	rep.info["result"] = res
	record, err := json.Marshal(rep.info)
	if err != nil {
		fmt.Fprintf(stderr, "ntcbench: %v\n", err)
		return 1
	}
	// The full record (host, run metadata, sample counts) is kept
	// beside the run and printed before the result line.
	if err := os.WriteFile(filepath.Join(base, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *traced)), record, 0o644); err != nil {
		fmt.Fprintf(stderr, "ntcbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "ntcbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", record, line)
	return 0
}

// hostInfo describes the machine and build a result was measured on.
// Results from different hosts may be shown side by side but are
// never compared for pass or fail.
func hostInfo() map[string]any {
	return map[string]any{
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the source revision run.sh found, or "unknown" in a
// checkout without version control.
func commit() string {
	if c := os.Getenv("NTCBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
