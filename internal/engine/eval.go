package engine

import (
	"fmt"

	"gsim/internal/emit"
	"gsim/internal/ir"
)

// EvalMode selects how an engine executes compiled instructions on its
// hottest path. The values are part of core.CacheKey, so they never move:
// EvalKernel is 0 and EvalInterp is 1.
type EvalMode uint8

const (
	// EvalKernel (the default) runs the full kernel-compiling pipeline:
	// pre-bound closures with opcode dispatch, operand offsets, widths, and
	// masks resolved at build time, superinstruction fusion over adjacent
	// two- and three-instruction idioms, width-class-specialized 2-word
	// kernels for the 65-128-bit range, and chains fused per supernode (and
	// per chunk, where
	// the engine sweeps chunks) so a sweep has no range lookups.
	EvalKernel EvalMode = iota
	// EvalInterp runs the reference switch-dispatch interpreter
	// (emit.Machine.Exec). It is the semantic baseline the kernel path is
	// pinned against, and the fallback to reach for when debugging.
	EvalInterp
)

// String returns the flag spelling of the mode.
func (m EvalMode) String() string {
	if m == EvalInterp {
		return "interp"
	}
	return "kernel"
}

// ParseEvalMode parses a -eval flag value.
func ParseEvalMode(s string) (EvalMode, error) {
	switch s {
	case "kernel":
		return EvalKernel, nil
	case "interp":
		return EvalInterp, nil
	}
	return 0, fmt.Errorf("unknown eval mode %q (want kernel or interp)", s)
}

// supKernel is one supernode compiled to closure-threaded form: the members'
// instructions as a single bound chain (superinstructions, width classes,
// operand pointers resolved into the engine's machine), plus the per-member
// bookkeeping the essential-signal sweep needs (old-value parking for change
// detection, register pending checks). Executing a supernode is then one
// scratch copy pass, one closure sweep, and one diff/activate pass — no
// per-member range lookups and no per-instruction dispatch.
type supKernel struct {
	fns    []emit.BoundFn
	instrs uint64
	nodes  uint64
	track  []trackSlot
	regs   []int32
}

// trackSlot locates one change-tracked member (comb or memory read port):
// its value words in the state image and its parking offset in the
// supernode-scratch buffer.
type trackSlot struct {
	id     int32
	off, w int32
	scr    int32
}

// buildSupKernels fuses every supernode of the activation plan into its
// kernel form: each supernode's concatenated member instructions are
// compiled as one bound chain with superinstruction fusion and width-class
// specialization (emit.Program.CompileChainBound). The returned scratch size
// (in words) is the widest per-supernode old-value parking area; callers
// size their scratch buffers to max(plan.maxWords, scratchWords) so both
// evaluation paths fit.
//
// Correctness of the "park all old values up front" shape: a member's value
// slot is written only by that member's own instructions, so earlier members
// of the supernode cannot clobber a later member's pre-sweep value — parking
// everything before the fused sweep observes exactly the values the
// interpreter's interleaved copy-eval-diff loop observes. Fusion across
// member boundaries inside the chain is safe for the same reason: a fused
// closure performs exactly the stores of its source instructions (two or
// three, per the matched rule) in order.
func buildSupKernels(p *emit.Program, m *emit.Machine, pl *activationPlan) ([]supKernel, int32) {
	nSups := len(pl.supStart) - 1
	sups := make([]supKernel, nSups)
	scratchWords := int32(1)
	var chain []emit.Instr
	for s := 0; s < nSups; s++ {
		sk := &sups[s]
		var scr int32
		chain = chain[:0]
		for k := pl.supStart[s]; k < pl.supStart[s+1]; k++ {
			id := pl.members[k]
			code := p.Code[id]
			chain = append(chain, p.Instrs[code.Start:code.End]...)
			sk.instrs += uint64(code.Len())
			sk.nodes++
			switch pl.kind[id] {
			case ir.KindReg:
				sk.regs = append(sk.regs, id)
			case ir.KindMemWrite:
				// write-port expressions land in dedicated slots; the commit
				// phase reads them, no change tracking needed
			default: // comb, memread
				w := p.WordsOf[id]
				sk.track = append(sk.track, trackSlot{id: id, off: p.Off[id], w: w, scr: scr})
				scr += w
			}
		}
		sk.fns = p.CompileChainBound(m, chain)
		if scr > scratchWords {
			scratchWords = scr
		}
	}
	return sups, scratchWords
}

// sweep runs the supernode's compiled chain.
func (sk *supKernel) sweep() {
	for _, f := range sk.fns {
		f()
	}
}
