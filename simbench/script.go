package main

import (
	"context"
	"fmt"
	"math/rand"

	"gsim/internal/bitvec"
	"gsim/internal/gen"
	"gsim/internal/server"
)

// Every profile has a 128-bit "stim" input and a 64-bit "checksum" output,
// which the FIRRTL writer names checksum_out.
const (
	stimPort = "stim"
	sumPort  = "checksum_out"
)

// stimKind selects how a stimulus stream moves activity across the
// profile's gated clusters.
type stimKind int

const (
	// coremark: both cluster selectors dwell on one cluster and hop to a
	// second one every 256 cycles over an 8-entry payload table, so little
	// of the design is active (the paper's hot-loop case).
	coremark stimKind = iota
	// linux: one selector sweeps every cluster in 16-cycle phases and the
	// other jumps at random, with a fresh payload each cycle, so activity
	// keeps moving (the paper's boot case).
	linux
)

// step pokes one stim value per lane, then steps n cycles.
type step struct {
	stim []bitvec.BV
	n    int
}

// batch is one op batch: its steps, then one checksum peek per lane.
type batch struct {
	steps  []step
	cycles int
	ops    []server.Op // the batch as session ops, rendered once up front
	lane0  []server.Op // lane 0 alone, for a scalar session replaying a gang lane
}

// opsFor returns the batch's ops for a session of the given lane count: a
// scalar session of a gang script replays lane 0.
func (b *batch) opsFor(lanes int) []server.Op {
	if lanes == 1 {
		return b.lane0
	}
	return b.ops
}

// script is one client's repeatable op sequence: every repetition starts
// from reset and runs the same batches, so one oracle pass checks them all.
type script struct {
	lanes   int
	batches []batch
}

// stream returns a per-cycle stim generator of the given kind.
func stream(p gen.Profile, kind stimKind, rng *rand.Rand) func(cycle int) bitvec.BV {
	if kind == coremark {
		hot := []uint64{uint64(rng.Intn(p.Clusters)), uint64(rng.Intn(p.Clusters))}
		table := make([]uint64, 8)
		for i := range table {
			table[i] = rng.Uint64()
		}
		return func(c int) bitvec.BV {
			sel := hot[(c/256)%2]
			return stimValue(p, sel, sel, table[c%len(table)], 0)
		}
	}
	phase := rng.Intn(p.Clusters)
	return func(c int) bitvec.BV {
		sel := uint64((c/16 + phase) % p.Clusters)
		return stimValue(p, sel, uint64(rng.Intn(p.Clusters)), rng.Uint64(), rng.Uint64())
	}
}

// stimValue packs two cluster selectors and a payload into the stim word
// the gen profiles decode: selectors in the low bits, payload above them.
func stimValue(p gen.Profile, sel, sel2, payload, hi uint64) bitvec.BV {
	w := uint(1)
	for 1<<w < p.Clusters {
		w++
	}
	mask := uint64(1)<<w - 1
	lo := sel&mask | (sel2&mask)<<w | payload<<(2*w)
	return bitvec.FromWords(128, []uint64{lo, hi<<(2*w) | payload>>(64-2*w)})
}

// subSeed derives an independent stream seed for one client or lane.
func subSeed(seed int64, stream int) int64 { return seed*1_000_003 + int64(stream)*7_919 + 1 }

// cycleScript builds batches of batchCycles single-cycle steps, rep cycles
// long, with one independently seeded stream per lane.
func cycleScript(p gen.Profile, kind stimKind, seed int64, lanes, batchCycles, rep int) *script {
	next := make([]func(int) bitvec.BV, lanes)
	for l := range next {
		next[l] = stream(p, kind, rand.New(rand.NewSource(subSeed(seed, l))))
	}
	sc := &script{lanes: lanes}
	for c := 0; c < rep; c += batchCycles {
		var b batch
		for k := c; k < c+batchCycles; k++ {
			st := step{n: 1}
			for l := range next {
				st.stim = append(st.stim, next[l](k))
			}
			b.steps = append(b.steps, st)
		}
		sc.add(b)
	}
	return sc
}

// opScript builds the service op mix: each batch pokes one linux-stream
// stim value, steps 1 to 16 cycles and peeks the checksum. Every 16
// batches step each count once in seeded order, so the cycles per batch do
// not depend on the seed.
func opScript(p gen.Profile, seed int64, client, iters int) *script {
	rng := rand.New(rand.NewSource(subSeed(seed, 100+client)))
	next := stream(p, linux, rng)
	sc := &script{lanes: 1}
	cycle := 0
	var counts []int
	for i := 0; i < iters; i++ {
		if i%16 == 0 {
			counts = rng.Perm(16)
		}
		st := step{stim: []bitvec.BV{next(cycle)}, n: 1 + counts[i%16]}
		cycle += st.n
		sc.add(batch{steps: []step{st}})
	}
	return sc
}

// add finishes b (cycle count, rendered ops) and appends it.
func (sc *script) add(b batch) {
	for _, st := range b.steps {
		b.cycles += st.n
	}
	b.ops = b.render(allLanes(sc.lanes), sc.lanes > 1)
	b.lane0 = b.ops
	if sc.lanes > 1 {
		b.lane0 = b.render([]int{0}, false)
	}
	sc.batches = append(sc.batches, b)
}

func allLanes(n int) []int {
	ls := make([]int, n)
	for i := range ls {
		ls[i] = i
	}
	return ls
}

// render writes the batch as session ops for the given lanes. tagged ops
// carry their lane (gang sessions); untagged ones address a scalar session.
func (b *batch) render(lanes []int, tagged bool) []server.Op {
	var ops []server.Op
	lane := func(l int) *int {
		if !tagged {
			return nil
		}
		return &l
	}
	for _, st := range b.steps {
		for _, l := range lanes {
			ops = append(ops, server.Op{Op: "poke", Name: stimPort, Value: literal(st.stim[l]), Lane: lane(l)})
		}
		ops = append(ops, server.Op{Op: "step", N: st.n})
	}
	for _, l := range lanes {
		ops = append(ops, server.Op{Op: "peek", Name: sumPort, Lane: lane(l)})
	}
	return ops
}

// literal renders a 128-bit value as a FIRRTL hex literal.
func literal(v bitvec.BV) string { return fmt.Sprintf("h%x%016x", v.W[1], v.W[0]) }

// oracle runs every lane of sc as its own scalar session under the
// full-cycle verilator preset and returns the expected checksum per batch
// and lane. It shares the front end and passes with the engines under test
// but none of their scheduling, activation or gang code.
func oracle(src string, sc *script) ([][]string, error) {
	m := server.NewManager()
	want := make([][]string, len(sc.batches))
	for l := 0; l < sc.lanes; l++ {
		s, err := m.CreateSession(src, server.SessionSpec{Engine: "verilator"})
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		for i := range sc.batches {
			b := &sc.batches[i]
			res, err := s.Apply(context.Background(), b.render([]int{l}, false))
			if err != nil {
				s.Close()
				return nil, fmt.Errorf("oracle: batch %d lane %d: %w", i, l, err)
			}
			want[i] = append(want[i], res[len(res)-1].Value)
		}
		s.Close()
	}
	return want, nil
}
