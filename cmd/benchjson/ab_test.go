package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// abOutput renders one side of an A/B run as ntcbench prints it: per
// run, a full record line and a result line.
func abOutput(commit string, cpu []float64, correct bool) string {
	var b strings.Builder
	b.WriteString("build noise that is not JSON\n")
	for _, v := range cpu {
		fmt.Fprintf(&b, `{"host":{"commit":%q,"cpu":"TestCPU","nproc":2,"gomaxprocs":2,"go":"go1.24.0","goos":"linux","goarch":"amd64"},"workload":"serve-mixed"}`+"\n", commit)
		failed := 0
		if !correct {
			failed = 1
		}
		fmt.Fprintf(&b, `{"correct":%v,"attempted":10,"failed":%d,"metrics":{"work_cpu_s":{"value":%v,"unit":"s"},"setup_s":{"value":0.5,"unit":"s"}}}`+"\n", correct, failed, v)
	}
	return b.String()
}

func writeTemp(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestABReport drives the A/B mode end to end on four pairs: head
// wins every pair on work_cpu_s by more than the base IQR, and ties
// every pair on setup_s.
func TestABReport(t *testing.T) {
	dir := t.TempDir()
	base := writeTemp(t, dir, "base.out", abOutput("aaaa", []float64{5.0, 5.4, 5.2, 5.6}, true))
	head := writeTemp(t, dir, "head.out", abOutput("bbbb", []float64{2.6, 2.7, 2.5, 2.8}, true))
	var out bytes.Buffer
	if err := run([]string{"-ab-base", base, "-ab-head", head}, &out, &out); err != nil {
		t.Fatalf("a/b: %v\n%s", err, out.String())
	}
	got := out.String()
	// Base quartiles of {5.0, 5.2, 5.4, 5.6} by the exclusive method:
	// 5.05, 5.3, 5.55 (IQR 0.5); head: 2.525, 2.65, 2.775. Complete
	// separation of 4 against 4 gives U = 16, and
	// z = (8 - 0.5)/sqrt(16*9/12) = 2.1651, p = 0.0304.
	for _, want := range []string{
		"pairs: 4",
		"base: commit aaaa, TestCPU, nproc 2, GOMAXPROCS 2, go1.24.0 linux/amd64",
		"head: commit bbbb,",
		"5.05/5.3/5.55",
		"2.525/2.65/2.775",
		"4/4",
		"+2.65 (head -50.0%)",
		"0.0304",
		"every run correct with failed 0",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("a/b report lacks %q:\n%s", want, got)
		}
	}
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, "setup_s") && (!strings.Contains(line, "0/4") || !strings.Contains(line, "false")) {
			t.Errorf("tied metric should show no wins and no gap: %q", line)
		}
		if strings.HasPrefix(line, "work_cpu_s") && !strings.Contains(line, "true") {
			t.Errorf("work_cpu_s gap should exceed the base IQR: %q", line)
		}
	}
}

func TestABReportErrors(t *testing.T) {
	dir := t.TempDir()
	good := writeTemp(t, dir, "good.out", abOutput("aaaa", []float64{1, 2}, true))
	three := writeTemp(t, dir, "three.out", abOutput("bbbb", []float64{1, 2, 3}, true))
	failed := writeTemp(t, dir, "failed.out", abOutput("bbbb", []float64{1, 2}, false))
	empty := writeTemp(t, dir, "empty.out", "no results\n")
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"one-side", []string{"-ab-base", good}, "go together"},
		{"pair-mismatch", []string{"-ab-base", good, "-ab-head", three}, "pairs must match"},
		{"failed-run", []string{"-ab-base", good, "-ab-head", failed}, "head run 1 (correct false, failed 1)"},
		{"no-results", []string{"-ab-base", empty, "-ab-head", good}, "no ntcbench result lines"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(c.args, &out, &out)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("run(%v) = %v, want mention of %q", c.args, err, c.want)
			}
		})
	}
}
