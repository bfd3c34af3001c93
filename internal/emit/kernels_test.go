package emit

import (
	"fmt"
	"math/rand"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/ir"
)

// numOpCodes bounds the opcode enumeration (via the cOpCount sentinel); the
// kernel-coverage test sweeps [CCopy, numOpCodes) and fails if a new opcode
// lands without a kernel or an explicit interpreter fallback.
const numOpCodes = int(cOpCount)

// TestKernelMatchesInterp is the kernel-level property test for the unfused
// bound kernels: for random expression trees (narrow and wide), compiling
// every instruction on its own with compileKernelBound and sweeping the
// closures must leave the machine in the exact state the interpreter leaves
// it in — every word, including temporaries. TestChainMatchesInterp covers
// the same property with fusion on.
func TestKernelMatchesInterp(t *testing.T) {
	for seed := int64(100); seed < 140; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := ir.NewBuilder(fmt.Sprintf("k%d", seed))
		var inputs []*ir.Node
		vals := map[*ir.Node]bitvec.BV{}
		for i := 0; i < 4; i++ {
			w := 1 + rng.Intn(130)
			in := b.Input(fmt.Sprintf("i%d", i), w)
			inputs = append(inputs, in)
			v := bitvec.New(w)
			for j := range v.W {
				v.W[j] = rng.Uint64()
			}
			vals[in] = bitvec.FromWords(w, v.W)
		}
		e := randExpr(rng, b, inputs, 5)
		p, _ := compileExpr(t, inputs, b.G, e)

		mi := NewMachine(p)
		mk := NewMachine(p)
		fns := make([]BoundFn, len(p.Instrs))
		for i, in := range p.Instrs {
			fns[i] = compileKernelBound(mk, in)
		}
		for _, in := range inputs {
			mi.Poke(in.ID, vals[in])
			mk.Poke(in.ID, vals[in])
		}
		mi.Exec(0, int32(len(p.Instrs)))
		for _, f := range fns {
			f()
		}
		for w := range mi.State {
			if mi.State[w] != mk.State[w] {
				t.Fatalf("seed %d: state word %d: interp %#x vs kernel %#x\nexpr: %s",
					seed, w, mi.State[w], mk.State[w], e)
			}
		}
	}
}

// TestKernelOpcodeCoverage pins the contract the engines rely on: every
// opcode in the enumeration compiles in the bound-chain compiler
// (compileKernelBound), narrow and wide, so a new opcode added without
// kernels fails the sweep instead of panicking at engine construction.
func TestKernelOpcodeCoverage(t *testing.T) {
	p := &Program{NumWords: 8, Mems: []MemSpec{{Depth: 2, Width: 8, WordsPer: 1, Init: make([]uint64, 2)}}}
	m := NewMachine(p)
	for op := int(CCopy); op < numOpCodes; op++ {
		narrow := Instr{Op: OpCode(op), DW: 8, AW: 8, BW: 8}
		wide := Instr{Op: OpCode(op), DW: 128, AW: 128, BW: 128}
		if fn := mustCompile(t, m, narrow); fn == nil {
			t.Fatalf("opcode %d: no narrow kernel", op)
		}
		if fn := mustCompile(t, m, wide); fn == nil {
			t.Fatalf("opcode %d: no wide fallback", op)
		}
	}
}

func mustCompile(t *testing.T, m *Machine, in Instr) (fn BoundFn) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("opcode %d (widths %d/%d/%d): compile panicked: %v", in.Op, in.DW, in.AW, in.BW, r)
		}
	}()
	return compileKernelBound(m, in)
}

// TestBuildKernelsIdempotent: the gang kernel table is built once per lane
// count and shared (gang sessions over one cached compile all request it),
// so asking twice must not rebuild it, and another lane count gets its own.
func TestBuildKernelsIdempotent(t *testing.T) {
	b := ir.NewBuilder("idem")
	in := b.Input("i", 8)
	p, _ := compileExpr(t, []*ir.Node{in}, b.G, b.Add(ir.Ref(in), ir.Ref(in)))
	first := p.GangKernels(4)
	if again := p.GangKernels(4); &again[0] != &first[0] {
		t.Fatal("GangKernels rebuilt the table for the same lane count")
	}
	if other := p.GangKernels(8); &other[0] == &first[0] {
		t.Fatal("GangKernels shared one table across lane counts")
	}
}

// TestChainMatchesInterp is the chain-level property test: for random
// expression trees (narrow and wide), the fused chain — superinstructions,
// width classes, and all — must leave the machine in the exact state the
// interpreter leaves it in, every word including temporaries. It also pins
// that fusion only ever shrinks the closure count, never the semantics.
func TestChainMatchesInterp(t *testing.T) {
	for seed := int64(300); seed < 360; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := ir.NewBuilder(fmt.Sprintf("c%d", seed))
		var inputs []*ir.Node
		vals := map[*ir.Node]bitvec.BV{}
		for i := 0; i < 4; i++ {
			w := 1 + rng.Intn(130)
			in := b.Input(fmt.Sprintf("i%d", i), w)
			inputs = append(inputs, in)
			v := bitvec.New(w)
			for j := range v.W {
				v.W[j] = rng.Uint64()
			}
			vals[in] = bitvec.FromWords(w, v.W)
		}
		e := randExpr(rng, b, inputs, 6)
		p, _ := compileExpr(t, inputs, b.G, e)

		mi := NewMachine(p)
		mb := NewMachine(p)
		bfns := p.CompileChainBound(mb, p.Instrs)
		if len(bfns) > len(p.Instrs) {
			t.Fatalf("seed %d: chain grew: %d closures for %d instructions", seed, len(bfns), len(p.Instrs))
		}
		for _, in := range inputs {
			mi.Poke(in.ID, vals[in])
			mb.Poke(in.ID, vals[in])
		}
		mi.Exec(0, int32(len(p.Instrs)))
		for _, f := range bfns {
			f()
		}
		for w := range mi.State {
			if mi.State[w] != mb.State[w] {
				t.Fatalf("seed %d: state word %d: interp %#x vs bound chain %#x\nexpr: %s",
					seed, w, mi.State[w], mb.State[w], e)
			}
		}
	}
}
