package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, which is how the benchmark's spread is judged.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // extrapolates past the ends
		{[]float64{5, 1, 3}, 1, 3, 5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median([]float64{7}); m != 7 {
		t.Errorf("single median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n   int
		pct float64
		ok  bool
	}{
		{19, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true},
		{999, 90, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		pct, v, ok := tailPercentile(xs)
		if ok != c.ok || pct != c.pct {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", c.n, pct, ok, c.pct, c.ok)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d p%v: only %d samples beyond %v", c.n, pct, beyond, v)
		}
	}
}

func TestFailRatioCountsRefusedAsAttempted(t *testing.T) {
	var tl tally
	if tl.ratio() != 0 {
		t.Fatal("empty tally must report 0")
	}
	tl.add(8, 0) // served
	tl.add(1, 1) // refused (429): attempted and failed
	tl.add(1, 1) // oracle mismatch
	if tl.attempted != 10 || tl.failed != 2 || !near(tl.ratio(), 0.2) {
		t.Errorf("tally = %+v ratio %v, want 10 attempted, 2 failed, 0.2", tl, tl.ratio())
	}
}

// Every reported metric carries its own sample count, and the JSON line
// has exactly the keys correct, attempted, failed and metrics.
func TestReportSampleCounts(t *testing.T) {
	r := &runner{samples: map[string][]float64{
		"setup_s": {1, 2, 3},
		"op_us":   make([]float64, 1000),
	}}
	for i := range r.samples["op_us"] {
		r.samples["op_us"][i] = float64(i)
	}
	r.check("ok", true)
	r.check("mismatch", false)
	var out bytes.Buffer
	defs := []metricDef{{"setup_s", "s"}, {"op_p50_us", "us"}}
	info := []metricDef{{"job_wall_s", "s"}}
	r.samples["job_wall_s"] = []float64{4, 5}
	if err := r.report(&out, defs, info); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, want := range []string{"setup_s", "n=3", "op_p50_us", "n=1000", "job_wall_s", "n=2", "fail_ratio", "0.5"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result keys = %v", keys)
	}
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 1 || len(res.Metrics) != 2 {
		t.Errorf("result = %+v; info metrics stay out of the JSON line", res)
	}
	if p50 := res.Metrics["op_p50_us"].Value; !near(p50, 499.5) {
		t.Errorf("op_p50_us = %v, want the median 499.5", p50)
	}
	if !strings.Contains(out.String(), "p99 ") {
		t.Errorf("1000 op samples must report their p99 tail:\n%s", out.String())
	}
	if err := r.report(&out, []metricDef{{"missing", "s"}}, nil); err == nil {
		t.Error("a metric without samples must be an error")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "core.compile", start: 0, end: 10 * time.Millisecond, parent: -1},
		{name: "passes.run", start: 1 * time.Millisecond, end: 5 * time.Millisecond, parent: 0},
		{name: "emit.compile", start: 5 * time.Millisecond, end: 8 * time.Millisecond, parent: 0},
		{name: "passes.run", start: 11 * time.Millisecond, end: 12 * time.Millisecond, parent: -1},
	}}
	self := tr.selfByLayer()
	want := map[string]time.Duration{"core": 3 * time.Millisecond, "passes": 5 * time.Millisecond, "emit": 3 * time.Millisecond}
	for l, d := range want {
		if self[l] != d {
			t.Errorf("self[%s] = %v, want %v", l, self[l], d)
		}
	}
	var nilTracer *tracer
	nilTracer.begin("engine.step")() // the untraced twin records nothing
}
