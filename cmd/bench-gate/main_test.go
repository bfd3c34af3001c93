package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchOut is `go test -bench -count 2` output: every row twice, with the
// -GOMAXPROCS suffix go test appends.
const benchOut = `goos: linux
BenchmarkKernelVsInterp/stucore/gsim/kernel-2        2000   1300 ns/op   1250 ns/cycle
BenchmarkKernelVsInterp/stucore/gsim/kernel-2        2000   1200 ns/op   1100 ns/cycle
BenchmarkGSIMMT/stucore/2T/kernel-2                  2000   9000 ns/op   120 simkHz
BenchmarkGSIMMT/stucore/2T/kernel-2                  2000   8000 ns/op   110 simkHz
BenchmarkTripleFusion/kernel-2                       2000   1500 ns/op
BenchmarkTripleFusion/kernel-2                       2000   1400 ns/op
PASS
`

func writeFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeRows(t *testing.T, name string, rows []Row) string {
	t.Helper()
	data, err := json.Marshal(&File{Go: "test", Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	return writeFile(t, name, data)
}

func TestParseKeepsBestOfCountAndStripsCPUSuffix(t *testing.T) {
	in := writeFile(t, "bench.out", []byte(benchOut))
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := runParse(in, out); err != nil {
		t.Fatal(err)
	}
	f, err := load(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Row{
		"BenchmarkGSIMMT/stucore/2T/kernel":           {Design: "stucore", Engine: "gsim-mt", Eval: "kernel", Threads: 2, NsOp: 9000, KHz: 120},
		"BenchmarkKernelVsInterp/stucore/gsim/kernel": {Design: "stucore", Engine: "gsim", Eval: "kernel", Threads: 1, NsOp: 1200, KHz: 1e6 / 1100},
		"BenchmarkTripleFusion/kernel":                {NsOp: 1400, KHz: 1e6 / 1400},
	}
	if len(f.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(f.Rows), len(want), f.Rows)
	}
	for _, r := range f.Rows {
		w, ok := want[r.Name]
		if !ok {
			t.Fatalf("unexpected row %q (suffix not stripped?)", r.Name)
		}
		w.Name = r.Name
		if r != w {
			t.Errorf("row %s:\n got %+v\nwant %+v", r.Name, r, w)
		}
	}
}

func TestStripCPUSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkFoo/bar-8":        "BenchmarkFoo/bar",
		"BenchmarkFoo/kernel":       "BenchmarkFoo/kernel",
		"BenchmarkFoo/gsim-2T-16":   "BenchmarkFoo/gsim-2T",
		"BenchmarkFoo/gsim-noalg-2": "BenchmarkFoo/gsim-noalg",
	} {
		if got := stripCPUSuffix(in); got != want {
			t.Errorf("stripCPUSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

// gateRows is a baseline with enough rows per thread group that one row's
// drop cannot move the normalizing median.
func gateRows() []Row {
	return []Row{
		{Name: "BenchmarkA", Threads: 1, KHz: 100},
		{Name: "BenchmarkB", Threads: 1, KHz: 200},
		{Name: "BenchmarkC", Threads: 1, KHz: 300},
		{Name: "BenchmarkD", Threads: 1, KHz: 400},
		{Name: "BenchmarkE", Threads: 1, KHz: 500},
	}
}

func compare(t *testing.T, base, cur []Row) bool {
	t.Helper()
	ok, err := runCompare(writeRows(t, "base.json", base), writeRows(t, "cur.json", cur), 0.15, false)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestCompareUnchangedRerunPasses(t *testing.T) {
	if !compare(t, gateRows(), gateRows()) {
		t.Fatal("an unchanged rerun failed the gate")
	}
}

func TestCompareUniformSlowdownPasses(t *testing.T) {
	cur := gateRows()
	for i := range cur {
		cur[i].KHz *= 0.5 // a slower machine, not a regression
	}
	if !compare(t, gateRows(), cur) {
		t.Fatal("a uniform machine-speed change failed the normalized gate")
	}
}

func TestCompareRegressionFails(t *testing.T) {
	cur := gateRows()
	cur[2].KHz *= 0.6
	if compare(t, gateRows(), cur) {
		t.Fatal("a 40% drop on one row passed the gate")
	}
}

func TestCompareMissingBaselineRowFails(t *testing.T) {
	cur := gateRows()[1:]
	if compare(t, gateRows(), cur) {
		t.Fatal("a baseline row missing from the current run passed the gate")
	}
}

func TestCompareIgnoresRowsNotInBaseline(t *testing.T) {
	cur := append(gateRows(), Row{Name: "BenchmarkNew", Threads: 1, KHz: 1})
	if !compare(t, gateRows(), cur) {
		t.Fatal("a row absent from the baseline failed the gate")
	}
}
