package firrtl

import (
	"math/rand"
	"strings"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/engine"
	"gsim/internal/gen"
	"gsim/internal/ir"
	"gsim/internal/rv"
)

// TestWriterRoundTrip is the frontend's strongest property test: render a
// random graph to FIRRTL text, parse and elaborate it back, and require the
// two graphs to produce identical output trajectories under identical
// stimulus.
func TestWriterRoundTrip(t *testing.T) {
	cfg := gen.DefaultRandomConfig()
	cfg.WideFrac = 0.05
	for seed := int64(0); seed < 5; seed++ {
		g := gen.Random(seed, cfg)
		var sb strings.Builder
		if err := Write(&sb, g); err != nil {
			t.Fatalf("seed %d: write: %v", seed, err)
		}
		g2, err := Load(sb.String())
		if err != nil {
			t.Fatalf("seed %d: reparse: %v\n--- emitted ---\n%s", seed, err, clip(sb.String()))
		}
		refA, err := engine.NewReference(g)
		if err != nil {
			t.Fatal(err)
		}
		refB, err := engine.NewReference(g2)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed + 99))
		for cycle := 0; cycle < 30; cycle++ {
			for _, n := range g.Nodes {
				if n == nil || n.Kind != ir.KindInput {
					continue
				}
				v := bitvec.FromWords(n.Width, []uint64{rng.Uint64(), rng.Uint64()})
				m := g2.FindNode(sanitizeID(n.Name))
				if m == nil {
					t.Fatalf("seed %d: input %q lost in round trip", seed, n.Name)
				}
				refA.Poke(n.ID, v)
				refB.Poke(m.ID, v)
			}
			refA.Step()
			refB.Step()
			for _, n := range g.Nodes {
				if n == nil || !n.IsOutput {
					continue
				}
				m := g2.FindNode(sanitizeID(n.Name) + "_out")
				if m == nil {
					t.Fatalf("seed %d: output %q lost in round trip", seed, n.Name)
				}
				a, b := refA.Peek(n.ID), refB.Peek(m.ID)
				if !a.EqValue(b) {
					t.Fatalf("seed %d cycle %d: output %q: %s vs %s", seed, cycle, n.Name, a, b)
				}
			}
		}
	}
}

func clip(s string) string {
	if len(s) > 4000 {
		return s[:4000] + "\n...[clipped]"
	}
	return s
}

// TestWriterEmitsResetForm checks extracted resets re-expand to reg-with.
func TestWriterEmitsResetForm(t *testing.T) {
	b := ir.NewBuilder("R")
	rst := b.Input("reset", 1)
	d := b.Input("d", 8)
	r := b.RegInit("r", 8, bitvec.FromUint64(8, 0x5a))
	b.SetNext(r, b.Fit(b.R(d), 8))
	r.ResetSig = rst
	b.Output("o", b.R(r))
	var sb strings.Builder
	if err := Write(&sb, b.G); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "with : (reset => (reset, UInt<8>(\"h5a\")))") {
		t.Fatalf("reset form missing:\n%s", sb.String())
	}
	// And it must parse back with equivalent reset semantics.
	g2, err := Load(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.NewReference(g2)
	if err != nil {
		t.Fatal(err)
	}
	ref.Poke(g2.FindNode("reset").ID, bitvec.FromUint64(1, 1))
	ref.Step()
	if got := ref.Peek(g2.FindNode("r").ID).Uint64(); got != 0x5a {
		t.Fatalf("reset value = %#x, want 0x5a", got)
	}
}

// TestWriterRoundTripRV32Core renders the RV32I core, whose output pc and
// node pc_out would both claim the FIRRTL name pc_out, and requires the text
// to load back and run in lockstep with the original core.
func TestWriterRoundTripRV32Core(t *testing.T) {
	prog, err := rv.Assemble(rv.Workloads["coremark"])
	if err != nil {
		t.Fatal(err)
	}
	c, err := rv.BuildCore(prog, rv.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := c.Graph
	var sb strings.Builder
	if err := Write(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(sb.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	// FIRRTL text carries no memory contents: preload the program ROM into
	// the reloaded core as a testbench would.
	for _, m := range g.Mems {
		for _, m2 := range g2.Mems {
			if m2.Name == sanitizeID(m.Name) {
				m2.Init = m.Init
			}
		}
	}
	refA, err := engine.NewReference(g)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := engine.NewReference(g2)
	if err != nil {
		t.Fatal(err)
	}
	var outs, ports []*ir.Node
	for _, n := range g.Nodes {
		if n == nil || !n.IsOutput {
			continue
		}
		m := g2.FindNode(sanitizeID(n.Name) + "_out")
		if m == nil {
			t.Fatalf("output %q lost in round trip", n.Name)
		}
		outs, ports = append(outs, n), append(ports, m)
	}
	pc := g.FindNode(c.PCName)
	startPC := refA.Peek(pc.ID)
	moved := false
	for cycle := 0; cycle < 300; cycle++ {
		// A port is a combinational copy of its node, so a register output
		// shows through its port the value the register had during the
		// step, not the value it commits.
		before := make([]bitvec.BV, len(outs))
		for i, n := range outs {
			before[i] = refA.Peek(n.ID)
		}
		refA.Step()
		refB.Step()
		for i, n := range outs {
			want := refA.Peek(n.ID)
			if n.Kind == ir.KindReg {
				want = before[i]
			}
			if got := refB.Peek(ports[i].ID); !want.EqValue(got) {
				t.Fatalf("cycle %d: output %q: %s vs %s", cycle, n.Name, want, got)
			}
		}
		moved = moved || !refA.Peek(pc.ID).EqValue(startPC)
	}
	if !moved {
		t.Fatal("the core never left its first instruction: the round trip checked nothing")
	}
}
