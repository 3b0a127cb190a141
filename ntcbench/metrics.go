package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// metricDef names one metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports
// each of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Every workload reports
// each of them; a layer the workload does not reach reports zero work.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"work_wall_s", "s"},
		{"synth.ms", "ms"}, {"synth.vm_samples", "count"},
		{"load.trace_reuse_ratio", "ratio"}, {"load.predict_reuse_ratio", "ratio"},
		{"predict.ms", "ms"}, {"predict.forecast_calls", "count"}, {"predict.forecast_p99_us", "us"},
		{"dispatch.ms", "ms"}, {"dispatch.calls", "count"},
		{"rebalance.epochs", "count"}, {"rebalance.cross_dc_migrations", "count"},
		{"alloc.ms", "ms"}, {"alloc.calls", "count"}, {"alloc.p50_us", "us"}, {"alloc.p99_us", "us"},
		{"alloc.epact_ms", "ms"}, {"alloc.coat_ms", "ms"},
		{"replay.ms", "ms"}, {"replay.slots", "count"}, {"replay.us_per_slot", "us"},
		{"encode.ms", "ms"}, {"encode.bytes", "bytes"}, {"decode.ms", "ms"},
		{"cache.puts", "count"}, {"cache.put_ms", "ms"}, {"cache.gets", "count"}, {"cache.get_ms", "ms"},
		{"cache.hit_ratio", "ratio"},
		{"dist.leases", "count"}, {"dist.lease_ms", "ms"}, {"dist.completes", "count"},
		{"dist.complete_ms", "ms"}, {"dist.complete_p99_ms", "ms"}, {"dist.complete_wchar_bytes", "bytes"},
	}
	for _, t := range routeTails {
		for _, p := range t.handler {
			defs = append(defs, metricDef{tailName("serve."+t.route+".handler", p), "ms"})
		}
		defs = append(defs, metricDef{tailName("serve."+t.route+".wait", t.wait), "ms"})
	}
	defs = append(defs, metricDef{"expo.write_ms", "ms"}, metricDef{"expo.page_bytes", "bytes"})
	for _, t := range clientTails {
		for _, p := range t.ps {
			defs = append(defs, metricDef{tailName(t.op, p), "ms"})
		}
	}
	return append(defs,
		metricDef{"serve_peak_rps", "1/s"},
		metricDef{"runtime.alloc_mb", "MB"}, metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"loadgen.late_p99_ms", "ms"}, metricDef{"loadgen.sent", "count"},
		metricDef{"tracing.overhead_frac", "ratio"},
		metricDef{"failed_frac", "ratio"},
	)
}()

// finishTraced reports the per-layer metrics of a traced run: the
// median of each metric over the run's traced iterations. It also
// records the layer split against the untraced work time and writes
// the last iteration's spans beside the run's result record.
func finishTraced(cfg runConfig, rep *report, name string, layers []map[string]float64, last *recorder, workMs float64) error {
	known := make(map[string]bool, len(perLayer))
	for _, d := range perLayer {
		known[d.name] = true
	}
	for _, lm := range layers {
		for k := range lm {
			if !known[k] {
				return fmt.Errorf("layer metric %q is not in the per-layer list", k)
			}
		}
	}
	for _, d := range perLayer {
		vals := make([]float64, len(layers))
		for i, lm := range layers {
			vals[i] = lm[d.name]
		}
		rep.set(d.name, d.unit, median(vals))
	}
	rep.set("failed_frac", "ratio", float64(rep.failed)/float64(rep.attempted))
	rep.info["split"] = layerSplit(rep.metrics, workMs)
	if last == nil {
		return nil
	}
	return last.writeFile(filepath.Join(filepath.Dir(cfg.dir), name+"-spans.json"))
}

// layerSplit expresses each layer's time as a share of the untraced
// work time. Synthesis and prediction run inside the loader, which
// every worker waits on, so they are shares of the wall time; the
// other layers run on one worker at a time and are shares of the
// workers' combined time. Shares are bounds, not a partition: the
// probes time the same work again outside the pool.
func layerSplit(m map[string]metric, workMs float64) map[string]float64 {
	v := func(names ...string) float64 {
		t := 0.0
		for _, n := range names {
			t += m[n].Value
		}
		return t
	}
	pool := workMs * workers
	return map[string]float64{
		"work_ms":       workMs,
		"synth":         v("synth.ms") / workMs,
		"predict":       v("predict.ms") / workMs,
		"dispatch":      v("dispatch.ms") / pool,
		"alloc":         v("alloc.ms") / pool,
		"replay":        v("replay.ms") / pool,
		"encode_cache":  v("encode.ms", "decode.ms", "cache.put_ms", "cache.get_ms") / pool,
		"dist":          v("dist.lease_ms", "dist.complete_ms") / pool,
		"expo_write_ms": v("expo.write_ms"),
	}
}

// addRuntime records the Go runtime's allocation and GC work between
// two snapshots taken around an untraced execution.
func addRuntime(lm map[string]float64, m0, m1 *runtime.MemStats) {
	lm["runtime.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	lm["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	lm["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
}

// peakRSSMB is the process's peak resident set so far (VmHWM), or
// NaN when it cannot be read.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if v, ok := bytes.CutPrefix(sc.Bytes(), []byte("VmHWM:")); ok {
			f := bytes.Fields(v)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(string(f[0]), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}

// cpuTime is the CPU time this process has used so far.
func cpuTime() time.Duration { return clockTime(clockProcessCPUTime) }

// threadCPUTime is the CPU time the calling OS thread has used so far.
func threadCPUTime() time.Duration { return clockTime(clockThreadCPUTime) }

// Linux's CPU-time clocks. They count nanoseconds the scheduler ran
// the process or thread; getrusage rounds to accounting ticks.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func clockTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
