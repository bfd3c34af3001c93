package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"gsim/internal/core"
	"gsim/internal/emit"
	"gsim/internal/firrtl"
	"gsim/internal/partition"
	"gsim/internal/passes"
)

// span is one timed call into a layer. Layer is the name up to the first
// dot; parent indexes the enclosing span (-1 for a root).
type span struct {
	name       string
	start, end time.Duration
	parent     int
}

// tracer keeps spans in memory for one goroutine; they are summarised when
// the run ends. A nil tracer records nothing, which is how the untraced
// twin of the layered job runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].end = time.Since(t.t0)
		t.open = t.open[:len(t.open)-1]
	}
}

// durations returns the duration of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// selfByLayer sums each layer's self time: a span's duration minus the
// part its child spans cover.
func (t *tracer) selfByLayer() map[string]time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.name, ".")
		out[layer] += self[i]
	}
	return out
}

// ledgerLines renders the layer shares of a wall time, under the given
// ledger name.
func ledgerLines(ledger string, self map[string]time.Duration, job time.Duration) []string {
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	var out []string
	for _, l := range layers {
		out = append(out, fmt.Sprintf("# ledger %s %-10s self %10.3f ms  %5.1f%% of %s", ledger, l,
			float64(self[l].Microseconds())/1e3, 100*self[l].Seconds()/job.Seconds(), ledger))
	}
	return out
}

// layeredCompile performs what Manager.CreateSession does on a cold cache
// (firrtl.Load, then core.CompileDesign) one public layer call at a time,
// with a span around each. The caller checks that the program it builds has
// the same design hash as the production compile.
func layeredCompile(src string, cfg core.Config, tr *tracer) (*core.CompiledDesign, error) {
	end := tr.begin("firrtl.parse")
	circ, err := firrtl.Parse(src)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("firrtl.elaborate")
	g, err := firrtl.Elaborate(circ)
	end()
	if err != nil {
		return nil, err
	}

	defer tr.begin("core.compile")()
	if cfg.MaxSupernode <= 0 {
		cfg.MaxSupernode = core.DefaultMaxSupernode
	}
	work := g.Clone()
	end = tr.begin("passes.run")
	passes.Normalize(work)
	res := passes.Run(work, cfg.Opt)
	end()
	if err := work.SortTopological(); err != nil {
		return nil, err
	}
	if err := work.Validate(); err != nil {
		return nil, err
	}
	end = tr.begin("emit.compile")
	prog, err := emit.Compile(work)
	end()
	if err != nil {
		return nil, err
	}
	d := &core.CompiledDesign{Config: cfg, Graph: work, Prog: prog, PassResult: res}
	if cfg.Engine == core.EngineActivity || cfg.Engine == core.EngineParallelActivity {
		end = tr.begin("partition.build")
		d.Part = partition.Build(work, cfg.Partition, cfg.MaxSupernode)
		end()
	}
	return d, nil
}
