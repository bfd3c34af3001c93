// Command simbench is the repository's layered simulation benchmark. Each
// workload submits generated FIRRTL text through the production path
// (server.Manager, and the fleet router over loopback HTTP), steps seeded
// stimulus in op batches, checkpoints and restores, and checks every peeked
// checksum against a full-cycle oracle. With -trace 1 it instead runs the
// same script one public layer call at a time under in-memory spans and
// reports per-layer figures.
//
//	bash simbench/run.sh --workload coremark-rocket --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object; the lines before it,
// each starting with '#', print every metric with its median (the reported
// value), quartiles, tail percentile and sample count.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gsim/internal/core"
	"gsim/internal/engine"
	"gsim/internal/firrtl"
	"gsim/internal/gen"
	"gsim/internal/partition"
	"gsim/internal/server"
)

// workload is one benchmark configuration. Why each exists is recorded in
// BENCHMARK.json and notes.json.
type workload struct {
	name    string
	profile gen.Profile
	spec    server.SessionSpec
	kind    stimKind
	batch   int // cycles per op batch
	rep     int // cycles per repetition
	// clients > 0 drives that many closed-loop HTTP clients through the
	// router, each repeating iters op-mix batches; 0 drives one in-process
	// session with a cycle script.
	clients, iters int
	ckEvery        int // batches between intermediate checkpoints
	jobs           int // cold set-ups per run
}

var workloads = []workload{
	{name: "coremark-rocket", profile: gen.RocketLike(), spec: server.SessionSpec{Engine: "gsim"},
		kind: coremark, batch: 32, rep: 4096, ckEvery: 16, jobs: 5},
	{name: "debug-http", profile: gen.StuCoreLike(), spec: server.SessionSpec{Engine: "gsim"},
		clients: 2, iters: 1024, ckEvery: 32, jobs: 10},
	{name: "regress-gang", profile: gen.RocketLike(), spec: server.SessionSpec{Engine: "verilator", Lanes: 8},
		kind: coremark, batch: 2, rep: 256, ckEvery: 16, jobs: 5},
}

// probeIters is the length of the service op mix the traced run sends in
// process, direct to the replica and through the router.
const probeIters = 96

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"job_s", "s"}, {"sim_khz", "kHz"},
	{"checkpoint_ms", "ms"}, {"restore_ms", "ms"},
	{"op_p50_us", "us"}, {"ops_per_s", "1/s"},
	{"heap_mb", "MB"},
}

// wallTime are the wall-time twins of the CPU-time metrics. They are
// printed beside them but bound nothing: on a shared host they move with
// other tenants' load.
var wallTime = []metricDef{
	{"setup_wall_s", "s"}, {"job_wall_s", "s"}, {"sim_khz_wall", "kHz"}, {"ops_per_s_wall", "1/s"},
}

var perLayer = []metricDef{
	{"firrtl.parse_ms", "ms"}, {"firrtl.elaborate_ms", "ms"},
	{"passes.run_ms", "ms"}, {"passes.nodes_out", "count"},
	{"partition.build_ms", "ms"}, {"partition.supernodes", "count"}, {"partition.cut_edges", "count"},
	{"emit.compile_ms", "ms"}, {"emit.instrs", "count"}, {"emit.state_kb", "KiB"},
	{"core.compile_ms", "ms"}, {"core.newsim_ms", "ms"}, {"core.cache_hit_ratio", "ratio"},
	{"engine.step_us_per_cycle", "us"}, {"engine.exams_per_cycle", "count"},
	{"engine.activations_per_cycle", "count"}, {"engine.evals_per_cycle", "count"},
	{"engine.instrs_per_cycle", "count"}, {"engine.ns_per_instr", "ns"}, {"engine.af", "ratio"},
	{"snapshot.encode_ms", "ms"}, {"snapshot.decode_ms", "ms"}, {"snapshot.bytes", "bytes"},
	{"server.apply_us", "us"}, {"server.http_us", "us"}, {"fleet.hop_us", "us"},
	{"trace.vcd_bytes", "bytes"}, {"trace.fetch_ms", "ms"},
	{"ledger.coverage", "ratio"}, {"ledger.overhead", "ratio"},
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "stimulus seed")
	seconds := flag.Int("seconds", 10, "stepping time to measure")
	traceFlag := flag.Int("trace", 0, "1: layered run with spans, reporting per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "simbench: bad arguments (workload %q)\n", *name)
		os.Exit(2)
	}
	r, err := newRunner(*w, *seed, *traceFlag == 1)
	if err == nil {
		if *traceFlag == 1 {
			err = r.layered(time.Duration(*seconds) * time.Second)
		} else {
			err = r.endToEnd(time.Duration(*seconds) * time.Second)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	defs, info := endToEnd, wallTime
	if *traceFlag == 1 {
		defs, info = perLayer, nil
	}
	if err := r.report(os.Stdout, defs, info); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

// client is one closed-loop driver: its session, a fresh session that
// checkpoints are restored into, its script and the oracle's answers.
type client struct {
	tg, fresh target
	sc        *script
	want      [][]string
}

// runner holds one run's inputs (FIRRTL text, scripts, oracle answers) and
// everything it measures.
type runner struct {
	w         workload
	src       string
	scs       []*script
	wants     [][][]string
	probe     *script
	probeWant [][]string

	mu       sync.Mutex
	samples  map[string][]float64
	tally    tally
	mismatch string // the first oracle mismatch, for the error report

	// Every op batch any client runs (checks included) adds to these.
	batches, cycles atomic.Int64 // cycles are lane-cycles on a gang
}

func newRunner(w workload, seed int64, traced bool) (*runner, error) {
	var sb strings.Builder
	if err := firrtl.Write(&sb, gen.BuildProfile(w.profile)); err != nil {
		return nil, err
	}
	r := &runner{w: w, src: sb.String(), samples: map[string][]float64{}}
	for c := 0; c < max(w.clients, 1); c++ {
		var sc *script
		if w.clients > 0 {
			sc = opScript(w.profile, seed, c, w.iters)
		} else {
			sc = cycleScript(w.profile, w.kind, seed, max(w.spec.Lanes, 1), w.batch, w.rep)
		}
		want, err := oracle(r.src, sc)
		if err != nil {
			return nil, err
		}
		r.scs, r.wants = append(r.scs, sc), append(r.wants, want)
	}
	if traced {
		r.probe = opScript(w.profile, seed, 50, probeIters)
		var err error
		if r.probeWant, err = oracle(r.src, r.probe); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *runner) add(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

// check counts one checked operation, failed when got differs from want.
func (r *runner) check(what string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ok {
		r.tally.add(1, 0)
		return
	}
	r.tally.add(1, 1)
	if r.mismatch == "" {
		r.mismatch = what
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// drive runs repetitions of c's script until deadline (one repetition when
// deadline is zero). A repetition resets the session and runs every batch;
// each intermediate checkpoint (lane 0's, on a gang) is restored into the
// scalar fresh session as it is taken. After the final snapshot the fresh
// session re-steps lane 0 of the batches after its checkpoint, and its peeks
// and final snapshot bytes are checked.
func (r *runner) drive(c client, deadline time.Time) error {
	bs := c.sc.batches
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		if err := c.tg.reset(); err != nil {
			r.check("reset", false)
			return err
		}
		restoredAt := -1 // the batch the fresh session's state ends at
		for i := range bs {
			t := time.Now()
			got, err := c.tg.run(&bs[i])
			if err != nil {
				r.check("batch", false)
				return fmt.Errorf("batch %d: %w", i, err)
			}
			r.add("op_us", us(time.Since(t)))
			r.stepped(bs[i].cycles * c.sc.lanes)
			r.check(fmt.Sprintf("batch %d: got %v want %v", i, got, c.want[i]), slices.Equal(got, c.want[i]))
			if r.w.ckEvery > 0 && (i+1)%r.w.ckEvery == 0 && i+1 < len(bs) {
				if _, err := r.checkpoint(c); err != nil {
					return err
				}
				restoredAt = i
			}
		}
		final, err := r.timedSnapshot(c.tg)
		if err != nil {
			return err
		}
		for i := restoredAt + 1; i < len(bs); i++ {
			got, err := c.fresh.run(&bs[i])
			if err != nil {
				r.check("tail batch", false)
				return err
			}
			r.stepped(bs[i].cycles)
			r.check(fmt.Sprintf("tail batch %d after restore", i), slices.Equal(got, c.want[i][:1]))
		}
		again, err := c.fresh.snapshot()
		if err != nil {
			r.check("tail snapshot", false)
			return err
		}
		r.check("final snapshot bytes after restore and re-step", bytes.Equal(again, final))
	}
	return nil
}

// stepped counts one op batch of the given (lane-)cycles.
func (r *runner) stepped(cycles int) {
	r.batches.Add(1)
	r.cycles.Add(int64(cycles))
}

// timedSnapshot takes one checkpoint_ms sample.
func (r *runner) timedSnapshot(tg target) ([]byte, error) {
	t := time.Now()
	blob, err := tg.snapshot()
	if err != nil {
		r.check("snapshot", false)
		return nil, err
	}
	r.add("checkpoint_ms", ms(time.Since(t)))
	r.add("snapshot.bytes", float64(len(blob)))
	return blob, nil
}

// checkpoint snapshots c's session and restores the blob into its fresh
// session, one checkpoint_ms and one restore_ms sample.
func (r *runner) checkpoint(c client) ([]byte, error) {
	blob, err := r.timedSnapshot(c.tg)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	if err := c.fresh.restore(blob); err != nil {
		r.check("restore", false)
		return nil, err
	}
	r.add("restore_ms", ms(time.Since(t)))
	return blob, nil
}

// endToEnd is the untraced run: w.jobs cold jobs through the production
// path, sharing the stepping time between them.
func (r *runner) endToEnd(seconds time.Duration) error {
	for j := 0; j < r.w.jobs; j++ {
		if err := r.job(seconds / time.Duration(r.w.jobs)); err != nil {
			return err
		}
	}
	return nil
}

// cpuTime is the CPU time every thread of the process has used so far. The
// set-up, job and stepping figures are taken in CPU time: on a shared host
// a stolen or preempted vCPU stretches wall time but not CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// job is one run of the fixed script on a cold compile cache: create the
// session(s) from FIRRTL text, then one repetition per client side by side
// (steps, checkpoints, final snapshot and the restore check). job_s is the
// CPU time of both. The clients then keep repeating the script until budget
// is spent, and sim_khz and ops_per_s count every batch they ran, checks
// included, per CPU second of that stepping.
func (r *runner) job(budget time.Duration) error {
	// Collecting the oracle's and the previous job's garbage also gives the
	// live heap before set-up. The first collection queues the finalizers
	// of closed sessions; the second frees what they held.
	runtime.GC()
	base := liveHeapMB()
	t0, cpu0 := time.Now(), cpuTime()
	m := server.NewManager()
	var cs []client
	var rg *rig
	defer func() {
		for _, c := range cs {
			c.tg.close()
			c.fresh.close()
		}
		if rg != nil {
			rg.stop()
		}
	}()
	// setup_s is the CPU time from FIRRTL text submitted to the first
	// session ready.
	ready := func(t time.Time, cpu time.Duration) {
		r.add("setup_s", (cpuTime() - cpu).Seconds())
		r.add("setup_wall_s", time.Since(t).Seconds())
	}
	scalar := r.w.spec
	scalar.Lanes = 0
	if r.w.clients == 0 {
		s, err := m.CreateSession(r.src, r.w.spec)
		if err != nil {
			return err
		}
		ready(t0, cpu0)
		f, err := m.CreateSession(r.src, scalar)
		if err != nil {
			s.Close()
			return err
		}
		cs = append(cs, client{tg: &sessionTarget{s: s, lanes: s.Lanes()}, fresh: &sessionTarget{s: f, lanes: 1}})
	} else {
		var err error
		if rg, err = startRig(m); err != nil {
			return err
		}
		for i := 0; i < r.w.clients; i++ {
			spec := r.w.spec
			if i == 0 {
				spec.TraceLanes = []int{0}
			}
			t, cpu := time.Now(), cpuTime()
			tg, resp, err := createHTTP(rg.client, rg.routerURL, r.src, spec)
			if err != nil {
				return err
			}
			if i == 0 {
				ready(t, cpu)
			}
			r.check("second create is a cache hit", resp.CacheHit == (i > 0))
			fresh, _, err := createHTTP(rg.client, rg.routerURL, r.src, scalar)
			if err != nil {
				tg.close()
				return err
			}
			cs = append(cs, client{tg: tg, fresh: fresh})
		}
	}
	for i := range cs {
		cs[i].sc, cs[i].want = r.scs[i], r.wants[i]
	}
	setup, setupCPU := time.Since(t0), cpuTime()-cpu0
	// Settle the heap left by the compile before stepping, outside the
	// timed job: otherwise whether the collector's first cycle lands
	// mid-setup or mid-stepping decides how often it runs while stepping,
	// and that changes from run to run. The live heap it adds is what the
	// ready sessions hold. The compile's transient peak is not measured:
	// where the collector's cycles fall moves it between modes 24% apart on
	// coremark-rocket.
	r.add("heap_mb", liveHeapMB()-base)

	deadline := time.Now().Add(budget)
	t1, cpu1 := time.Now(), cpuTime()
	if err := each(cs, func(c client) error { return r.drive(c, time.Time{}) }); err != nil {
		return err
	}
	r.add("job_s", (setupCPU + cpuTime() - cpu1).Seconds())
	r.add("job_wall_s", (setup + time.Since(t1)).Seconds())

	t2, cpu2 := time.Now(), cpuTime()
	cycles0, batches0 := r.cycles.Load(), r.batches.Load()
	if err := each(cs, func(c client) error { return r.drive(c, deadline) }); err != nil {
		return err
	}
	cpu, wall := (cpuTime() - cpu2).Seconds(), time.Since(t2).Seconds()
	cycles, batches := float64(r.cycles.Load()-cycles0), float64(r.batches.Load()-batches0)
	r.add("sim_khz", cycles/cpu/1e3)
	r.add("ops_per_s", batches/cpu)
	r.add("sim_khz_wall", cycles/wall/1e3)
	r.add("ops_per_s_wall", batches/wall)
	if rg != nil {
		vcd, err := cs[0].tg.(*httpTarget).vcd()
		r.check("traced lane 0 waveform fetched", err == nil && len(vcd) > 0)
	}
	return nil
}

// each runs f for every client side by side and waits for all of them.
func each(cs []client, f func(client) error) error {
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(cs[i])
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// coreConfig is the core configuration server.SessionSpec resolves to for
// the presets the workloads use.
func coreConfig(spec server.SessionSpec) core.Config {
	switch {
	case spec.Engine == "verilator":
		return core.Verilator()
	case spec.Threads > 0:
		return core.GSIMMT(spec.Threads)
	default:
		return core.GSIM()
	}
}

// layerCounts are the exact counts one layered job produces; the same seed
// must reproduce them on every run.
type layerCounts struct {
	nodesOut, supernodes, cutEdges, instrs, stateWords int
	st                                                 engine.Stats
	stepTime                                           time.Duration
}

// layeredJob runs the script once per client on a design compiled one
// layer call at a time, driving the engine and snapshot layers directly.
// tr == nil runs the same code with no spans: the untraced twin.
func (r *runner) layeredJob(tr *tracer) (time.Duration, *core.CompiledDesign, layerCounts, error) {
	t0 := time.Now()
	defer tr.begin("bench.job")()
	var lc layerCounts
	cfg := coreConfig(r.w.spec)
	d, err := layeredCompile(r.src, cfg, tr)
	if err != nil {
		return 0, nil, lc, err
	}
	stim, sum := d.Graph.FindNode(stimPort), d.Graph.FindNode(sumPort)
	if stim == nil || sum == nil {
		return 0, nil, lc, fmt.Errorf("compiled design lacks %s or %s", stimPort, sumPort)
	}
	newTarget := func(lanes int) (*engineTarget, error) {
		defer tr.begin("core.newsim")()
		t := &engineTarget{stimID: stim.ID, sumID: sum.ID, tr: tr}
		var err error
		if lanes > 1 {
			t.gang, err = d.NewGang(lanes)
		} else {
			t.sim, err = d.NewSim(cfg)
		}
		return t, err
	}
	for i, sc := range r.scs {
		tg, err := newTarget(sc.lanes)
		if err != nil {
			return 0, nil, lc, err
		}
		fresh, err := newTarget(1)
		if err != nil {
			tg.close()
			return 0, nil, lc, err
		}
		err = r.drive(client{tg: tg, fresh: fresh, sc: sc, want: r.wants[i]}, time.Time{})
		st := tg.stats()
		lc.st.Cycles += st.Cycles
		lc.st.NodeEvals += st.NodeEvals
		lc.st.Activations += st.Activations
		lc.st.Examinations += st.Examinations
		lc.st.InstrsExecuted += st.InstrsExecuted
		// Evaluable nodes is a per-lane design figure that gang stats sum over
		// lanes; keeping it per lane makes ActivityFactor the lane average.
		lc.st.EvaluableNodes = st.EvaluableNodes / uint64(sc.lanes)
		lc.stepTime += tg.stepTime
		if tr != nil {
			for _, v := range tg.perCycle {
				r.add("engine.step_us_per_cycle", v)
			}
		}
		tg.close()
		fresh.close()
		if err != nil {
			return 0, nil, lc, err
		}
	}
	lc.nodesOut = len(d.Graph.Nodes)
	lc.instrs = len(d.Prog.Instrs)
	lc.stateWords = d.Prog.NumWords
	if d.Part != nil {
		lc.supernodes, lc.cutEdges = d.Part.Count(), d.Part.CutEdges
	}
	return time.Since(t0), d, lc, nil
}

// layered is the traced run: untraced and traced layered jobs alternate
// until seconds have passed (at least one of each), then the service probe.
func (r *runner) layered(seconds time.Duration) error {
	start := time.Now()
	var ref *layerCounts
	var d *core.CompiledDesign
	var untraced, traced []float64
	for pair := 0; pair == 0 || time.Since(start) < seconds; pair++ {
		for _, on := range []bool{false, true} {
			var tr *tracer
			if on {
				tr = newTracer()
			}
			dur, design, lc, err := r.layeredJob(tr)
			if err != nil {
				return err
			}
			d = design
			if ref == nil {
				ref = &lc
			}
			// stepTime is a timing; every other field must repeat exactly.
			same := lc
			same.stepTime = ref.stepTime
			r.check(fmt.Sprintf("layer counts repeat: %+v vs %+v", lc, *ref), same == *ref)
			if !on {
				untraced = append(untraced, dur.Seconds())
				continue
			}
			traced = append(traced, dur.Seconds())
			r.spanMetrics(tr, dur, lc)
		}
	}
	r.add("ledger.overhead", median(traced)/median(untraced)-1)
	c := ref
	cyc := float64(c.st.Cycles)
	r.add("passes.nodes_out", float64(c.nodesOut))
	r.add("emit.instrs", float64(c.instrs))
	r.add("emit.state_kb", float64(c.stateWords*8)/1024)
	r.add("engine.exams_per_cycle", float64(c.st.Examinations)/cyc)
	r.add("engine.activations_per_cycle", float64(c.st.Activations)/cyc)
	r.add("engine.evals_per_cycle", float64(c.st.NodeEvals)/cyc)
	r.add("engine.instrs_per_cycle", float64(c.st.InstrsExecuted)/cyc)
	r.add("engine.af", c.st.ActivityFactor())
	if d.Part == nil {
		// Full-cycle presets build no partition; partition the same optimized
		// graph outside the job so the layer is still measured here.
		t := time.Now()
		p := partition.Build(d.Graph, core.GSIM().Partition, core.DefaultMaxSupernode)
		r.add("partition.build_ms", ms(time.Since(t)))
		c.supernodes, c.cutEdges = p.Count(), p.CutEdges
		fmt.Println("# partition.* measured outside the job: this preset has no partition")
	}
	r.add("partition.supernodes", float64(c.supernodes))
	r.add("partition.cut_edges", float64(c.cutEdges))
	return r.serviceProbe(d)
}

// spanMetrics turns one traced job's spans into per-layer samples.
func (r *runner) spanMetrics(tr *tracer, job time.Duration, lc layerCounts) {
	for _, name := range []string{"firrtl.parse", "firrtl.elaborate", "passes.run", "partition.build",
		"emit.compile", "core.compile", "core.newsim", "snapshot.encode", "snapshot.decode"} {
		for _, d := range tr.durations(name) {
			r.add(name+"_ms", ms(d))
		}
	}
	r.add("engine.ns_per_instr", float64(lc.stepTime.Nanoseconds())/float64(lc.st.InstrsExecuted))
	self := tr.selfByLayer()
	covered := time.Duration(0)
	for layer, d := range self {
		if layer != "bench" {
			covered += d
		}
	}
	r.add("ledger.coverage", covered.Seconds()/job.Seconds())
	for _, line := range ledgerLines("job", self, job) {
		fmt.Println(line)
	}
}

// serviceProbe measures the server, fleet and trace layers on the same
// design. The op mix runs in lockstep on five targets: the layered design's
// engine called directly, and four cache-hit sessions — in process, direct
// to the replica over HTTP, through the router, and through the router with
// lane 0 traced — whose waveform is then fetched. All but the last share
// one untraced spec, so each difference between neighbours is one layer's
// cost. It also checks that the layered compile built the program and
// partition the production path builds.
func (r *runner) serviceProbe(d *core.CompiledDesign) error {
	m := server.NewManager()
	s0, err := m.CreateSession(r.src, r.w.spec)
	if err != nil {
		return err
	}
	r.check("layered compile matches production design hash", s0.Design.DesignHash() == d.DesignHash())
	r.check(fmt.Sprintf("layered partition %s matches production partition %s", partCounts(d.Part), partCounts(s0.Design.Part)),
		partCounts(d.Part) == partCounts(s0.Design.Part))
	s0.Close()
	rg, err := startRig(m)
	if err != nil {
		return err
	}
	defer rg.stop()
	scalar := r.w.spec
	scalar.Lanes = 0
	tracedSpec := scalar
	tracedSpec.TraceLanes = []int{0}
	var tgs []target
	defer func() {
		for _, t := range tgs {
			t.close()
		}
	}()
	eng := &engineTarget{stimID: d.Graph.FindNode(stimPort).ID, sumID: d.Graph.FindNode(sumPort).ID}
	if eng.sim, err = d.NewSim(coreConfig(scalar)); err != nil {
		return err
	}
	tgs = append(tgs, eng)
	s, err := m.CreateSession(r.src, scalar)
	if err != nil {
		return err
	}
	tgs = append(tgs, &sessionTarget{s: s, lanes: 1})
	var traced *httpTarget
	for _, c := range []struct {
		url  string
		spec server.SessionSpec
	}{{rg.replicaURL, scalar}, {rg.routerURL, scalar}, {rg.routerURL, tracedSpec}} {
		tg, _, err := createHTTP(rg.client, c.url, r.src, c.spec)
		if err != nil {
			return err
		}
		tgs, traced = append(tgs, tg), tg
	}
	names := []string{"engine.probe_us", "server.apply_us", "server.http_us", "fleet.routed_us", "trace.routed_us"}
	sums := make([]time.Duration, len(names))
	for i := range r.probe.batches {
		for k, tg := range tgs {
			t := time.Now()
			got, err := tg.run(&r.probe.batches[i])
			if err != nil {
				r.check("probe batch", false)
				return err
			}
			dt := time.Since(t)
			sums[k] += dt
			r.add(names[k], us(dt))
			r.check(fmt.Sprintf("probe batch %d on %s", i, names[k]), slices.Equal(got, r.probeWant[i]))
		}
	}
	r.add("fleet.hop_us", median(r.samples["fleet.routed_us"])-median(r.samples["server.http_us"]))
	t := time.Now()
	vcd, err := traced.vcd()
	if err != nil {
		return err
	}
	fetch := time.Since(t)
	r.add("trace.fetch_ms", ms(fetch))
	r.add("trace.vcd_bytes", float64(len(vcd)))
	cs := m.CacheStats()
	r.add("core.cache_hit_ratio", float64(cs.Hits)/float64(cs.Hits+cs.Misses))
	// The service ledger splits the traced routed op mix plus its fetch,
	// debug-http's client 0, by layer: server is the in-process dispatch
	// and the HTTP handler with its JSON codec.
	self := map[string]time.Duration{
		"engine": sums[0],
		"server": sums[2] - sums[0],
		"fleet":  sums[3] - sums[2],
		"trace":  sums[4] - sums[3] + fetch,
	}
	for _, line := range ledgerLines("service", self, sums[4]+fetch) {
		fmt.Println(line)
	}
	return nil
}

// partCounts renders a partition's supernode and cut-edge counts ("none"
// when the preset builds no partition).
func partCounts(p *partition.Result) string {
	if p == nil {
		return "none"
	}
	return fmt.Sprintf("%d supernodes/%d cut edges", p.Count(), p.CutEdges)
}

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric in defs and info with its median (the
// reported value), quartiles, tail percentile and sample count, then the
// fail ratio, then the JSON result line, which holds the defs alone.
func (r *runner) report(out io.Writer, defs, info []metricDef) error {
	r.samples["op_p50_us"] = r.samples["op_us"]
	res := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{Attempted: r.tally.attempted, Failed: r.tally.failed, Metrics: map[string]jsonValue{}}
	for i, d := range append(slices.Clip(defs), info...) {
		xs := r.samples[d.name]
		v := median(xs)
		if len(xs) == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no valid samples", d.name)
		}
		tail := "tail -"
		if p, tv, ok := tailPercentile(xs); ok {
			tail = fmt.Sprintf("p%g %.6g", p, tv)
		}
		q1, _, q3 := quartiles(xs)
		fmt.Fprintf(out, "# %-30s %14.6g %-6s quartiles %.6g %.6g  %s  n=%d\n",
			d.name, v, d.unit, q1, q3, tail, len(xs))
		if i < len(defs) {
			res.Metrics[d.name] = jsonValue{Value: v, Unit: d.unit}
		}
	}
	fmt.Fprintf(out, "# %-30s %14.6g %-6s (%d failed of %d attempted)\n", "fail_ratio", r.tally.ratio(), "ratio", r.tally.failed, r.tally.attempted)
	if r.mismatch != "" {
		fmt.Fprintf(out, "# first failure: %s\n", r.mismatch)
	}
	res.Correct = r.tally.failed == 0 && r.tally.attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}
