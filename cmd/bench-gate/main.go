// Command bench-gate turns `go test -bench` output into the machine-readable
// benchmark trajectory (BENCH.json) and gates CI on it: parse converts raw
// benchmark text into structured rows, compare diffs a fresh BENCH.json
// against the committed BENCH_baseline.json and fails on a throughput
// regression.
//
// Usage:
//
//	go test -bench '...' -benchtime 200x -run '^$' . | bench-gate -parse -out BENCH.json
//	bench-gate -compare -baseline BENCH_baseline.json -current BENCH.json [-threshold 0.15]
//
// Because CI runners and developer machines differ in absolute speed, compare
// normalizes by default: every matched benchmark's throughput ratio
// (current/baseline) is divided by the median ratio across all matched rows,
// which cancels the machine-speed factor and leaves only per-benchmark
// shifts. A row whose normalized ratio drops below 1-threshold fails the
// gate. -raw compares absolute throughputs instead (for same-machine runs).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Row is one benchmark datapoint of the trajectory.
type Row struct {
	Name    string  `json:"name"`              // full sub-benchmark name, -cpu suffix stripped
	Design  string  `json:"design,omitempty"`  // stucore, rocket-like, ... when derivable
	Engine  string  `json:"engine,omitempty"`  // gsim, verilator, gsim-mt, ...
	Eval    string  `json:"eval,omitempty"`    // kernel, interp
	Threads int     `json:"threads,omitempty"` // worker count (1 when single-threaded)
	NsOp    float64 `json:"ns_op,omitempty"`   // wall ns per benchmark op
	KHz     float64 `json:"khz,omitempty"`     // simulated kHz (throughput)
}

// File is the BENCH.json schema.
type File struct {
	Go   string `json:"go"`
	Rows []Row  `json:"rows"`
}

func main() {
	parse := flag.Bool("parse", false, "parse `go test -bench` output (stdin or -in) into BENCH.json")
	compare := flag.Bool("compare", false, "compare -current against -baseline and gate on regressions")
	in := flag.String("in", "", "input file for -parse (default stdin)")
	out := flag.String("out", "BENCH.json", "output file for -parse")
	baseline := flag.String("baseline", "BENCH_baseline.json", "committed baseline for -compare")
	current := flag.String("current", "BENCH.json", "fresh results for -compare")
	threshold := flag.Float64("threshold", 0.15, "fail when normalized throughput drops more than this fraction")
	raw := flag.Bool("raw", false, "compare absolute throughputs (skip median normalization)")
	flag.Parse()

	switch {
	case *parse:
		if err := runParse(*in, *out); err != nil {
			fatal(err)
		}
	case *compare:
		ok, err := runCompare(*baseline, *current, *threshold, *raw)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "bench-gate: need -parse or -compare")
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench-gate:", err)
	os.Exit(1)
}

// benchLine matches one benchmark result line:
//
//	BenchmarkFoo/sub/parts-8   200   51234 ns/op   19.5 ns/cycle   321 simkHz
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

func runParse(inPath, outPath string) error {
	var r io.Reader = os.Stdin
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	file := File{Go: runtime.Version()}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		row := Row{Name: stripCPUSuffix(m[1])}
		// Metric pairs: value unit, value unit, ...
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				row.NsOp = val
			case "simkHz":
				row.KHz = val
			case "ns/cycle":
				if val > 0 && row.KHz == 0 {
					row.KHz = 1e6 / val // 1e9 ns/s / (ns/cycle) = Hz; /1e3 = kHz
				}
			}
		}
		if row.KHz == 0 && row.NsOp > 0 {
			row.KHz = 1e6 / row.NsOp // benchmarks step once per op
		}
		deriveFields(&row)
		file.Rows = append(file.Rows, row)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(file.Rows) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	// Benchmarks run with -count N for noise rejection: keep each name's
	// best throughput (the run least disturbed by the machine).
	best := map[string]int{}
	var dedup []Row
	for _, r := range file.Rows {
		if i, ok := best[r.Name]; ok {
			if r.KHz > dedup[i].KHz {
				dedup[i] = r
			}
			continue
		}
		best[r.Name] = len(dedup)
		dedup = append(dedup, r)
	}
	file.Rows = dedup
	sort.Slice(file.Rows, func(i, j int) bool { return file.Rows[i].Name < file.Rows[j].Name })
	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("bench-gate: wrote %d rows to %s\n", len(file.Rows), outPath)
	return nil
}

// stripCPUSuffix removes the trailing -GOMAXPROCS go test appends.
func stripCPUSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// deriveFields fills the structured columns from the benchmark name shapes
// this repository emits:
//
//	BenchmarkKernelVsInterp/<design>/<engine>/<eval>
//	BenchmarkGSIMMT/<design>/<N>T/<eval>
var threadsPart = regexp.MustCompile(`^(\d+)T$`)

func deriveFields(r *Row) {
	parts := strings.Split(r.Name, "/")
	switch {
	case strings.HasPrefix(parts[0], "BenchmarkKernelVsInterp") && len(parts) == 4:
		r.Design, r.Engine, r.Eval, r.Threads = parts[1], parts[2], parts[3], 1
	case strings.HasPrefix(parts[0], "BenchmarkGSIMMT") && len(parts) == 4:
		r.Design, r.Engine, r.Eval = parts[1], "gsim-mt", parts[3]
		if m := threadsPart.FindStringSubmatch(parts[2]); m != nil {
			r.Threads, _ = strconv.Atoi(m[1])
		}
	}
}

func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}

func runCompare(basePath, curPath string, threshold float64, raw bool) (bool, error) {
	base, err := load(basePath)
	if err != nil {
		return false, err
	}
	cur, err := load(curPath)
	if err != nil {
		return false, err
	}
	curBy := map[string]Row{}
	for _, r := range cur.Rows {
		curBy[r.Name] = r
	}
	type pair struct {
		name     string
		threads  int
		old, new float64
		ratio    float64
	}
	var pairs []pair
	var missing []string
	for _, b := range base.Rows {
		r, ok := curBy[b.Name]
		if !ok {
			missing = append(missing, b.Name)
			continue
		}
		if b.KHz <= 0 || r.KHz <= 0 {
			continue
		}
		pairs = append(pairs, pair{b.Name, b.Threads, b.KHz, r.KHz, r.KHz / b.KHz})
	}
	// A baseline benchmark absent from the current run means lost coverage
	// (renamed, deleted, or a bench run that died partway) — that must fail
	// the gate, not shrink it.
	if len(missing) > 0 {
		for _, name := range missing {
			fmt.Printf("bench-gate: baseline benchmark missing from current run: %s\n", name)
		}
		fmt.Printf("bench-gate: FAIL — %d baseline benchmark(s) missing (rename? crashed run? refresh the baseline if intentional)\n", len(missing))
		return false, nil
	}
	if len(pairs) == 0 {
		return false, fmt.Errorf("no benchmarks in common between %s and %s", basePath, curPath)
	}

	// Normalization cancels machine-speed differences between the baseline
	// recorder and this runner. The factor differs by parallelism (a
	// multi-core runner lifts multi-threaded benchmarks far more than
	// single-threaded ones than a single-core recorder would), so the median
	// is taken per thread-count group; groups too small for a stable median
	// fall back to the global one.
	median := func(keep func(p pair) bool) float64 {
		var rs []float64
		for _, p := range pairs {
			if keep(p) {
				rs = append(rs, p.ratio)
			}
		}
		if len(rs) == 0 {
			return 1
		}
		sort.Float64s(rs)
		if len(rs)%2 == 0 {
			return (rs[len(rs)/2-1] + rs[len(rs)/2]) / 2
		}
		return rs[len(rs)/2]
	}
	norms := map[int]float64{}
	if !raw {
		global := median(func(pair) bool { return true })
		byThreads := map[int]int{}
		for _, p := range pairs {
			byThreads[p.threads]++
		}
		for th, n := range byThreads {
			if n >= 4 {
				th := th
				norms[th] = median(func(p pair) bool { return p.threads == th })
			} else {
				norms[th] = global
			}
		}
		fmt.Printf("bench-gate: %d matched benchmarks, median throughput ratio %.3f global (per-thread-group normalizers applied)\n",
			len(pairs), global)
	} else {
		fmt.Printf("bench-gate: %d matched benchmarks, raw comparison\n", len(pairs))
	}

	failed := 0
	fmt.Printf("%-64s %12s %12s %8s %8s  %s\n", "benchmark", "base kHz", "cur kHz", "ratio", "norm", "status")
	for _, p := range pairs {
		n := p.ratio
		if !raw {
			n = p.ratio / norms[p.threads]
		}
		status := "ok"
		switch {
		case n < 1-threshold:
			status = "REGRESSION"
			failed++
		case n > 1+threshold:
			status = "improved"
		}
		fmt.Printf("%-64s %12.1f %12.1f %7.2fx %7.2fx  %s\n",
			strings.TrimPrefix(p.name, "Benchmark"), p.old, p.new, p.ratio, n, status)
	}
	if failed > 0 {
		fmt.Printf("bench-gate: FAIL — %d benchmark(s) regressed more than %.0f%%\n", failed, threshold*100)
		return false, nil
	}
	fmt.Printf("bench-gate: PASS — no benchmark regressed more than %.0f%%\n", threshold*100)
	return true, nil
}
