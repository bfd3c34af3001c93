package firrtl

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"gsim/internal/bitvec"
	"gsim/internal/ir"
)

// Write renders a graph back to FIRRTL text (one flat module). Round-trips
// through the parser: Write → Parse → Elaborate produces an equivalent
// graph, which the test suite verifies by simulation. Registers with
// extracted resets are re-expanded into `reg ... with : (reset => ...)`
// form so the output stands alone.
func Write(w io.Writer, g *ir.Graph) error {
	name := sanitizeID(g.Name)
	if name == "" {
		name = "Top"
	}
	fmt.Fprintf(w, "circuit %s :\n  module %s :\n", name, name)
	fmt.Fprintf(w, "    input clock : Clock\n")

	// Stable rename: FIRRTL identifiers cannot contain '.' or '#'. Each
	// output is exposed as a port named <name>_out; port names are reserved
	// first, so a node that happens to carry one (the RV32I core has both
	// an output pc and a node pc_out) is renamed instead of redeclaring it.
	used := map[string]bool{"clock": true}
	unique := func(base string) string {
		cand := base
		for i := 2; used[cand]; i++ {
			cand = fmt.Sprintf("%s_%d", base, i)
		}
		used[cand] = true
		return cand
	}
	baseName := func(n *ir.Node) string {
		if base := sanitizeID(n.Name); base != "" {
			return base
		}
		return fmt.Sprintf("s%d", n.ID)
	}
	ports := map[*ir.Node]string{}
	var outputs []*ir.Node
	for _, n := range g.Nodes {
		if n != nil && n.IsOutput {
			outputs = append(outputs, n)
			ports[n] = unique(baseName(n) + "_out")
		}
	}
	names := map[*ir.Node]string{}
	for _, n := range g.Nodes {
		if n != nil {
			names[n] = unique(baseName(n))
		}
	}

	// Ports.
	for _, n := range g.Nodes {
		if n != nil && n.Kind == ir.KindInput {
			fmt.Fprintf(w, "    input %s : UInt<%d>\n", names[n], n.Width)
		}
	}
	for _, n := range outputs {
		fmt.Fprintf(w, "    output %s : UInt<%d>\n", ports[n], n.Width)
	}
	fmt.Fprintln(w)

	// Memories. Port lists are derived from the node set directly (the
	// cached Memory.Reads/Writes lists are only maintained by Compact).
	reads := map[*ir.Memory][]*ir.Node{}
	writesOf := map[*ir.Memory][]*ir.Node{}
	for _, n := range g.Nodes {
		if n == nil {
			continue
		}
		switch n.Kind {
		case ir.KindMemRead:
			reads[n.Mem] = append(reads[n.Mem], n)
		case ir.KindMemWrite:
			writesOf[n.Mem] = append(writesOf[n.Mem], n)
		}
	}
	memNames := map[*ir.Memory]string{}
	for _, m := range g.Mems {
		mn := sanitizeID(m.Name)
		if mn == "" || used[mn] {
			mn = fmt.Sprintf("mem%d", m.ID)
		}
		used[mn] = true
		memNames[m] = mn
		fmt.Fprintf(w, "    mem %s :\n", mn)
		fmt.Fprintf(w, "      data-type => UInt<%d>\n", m.Width)
		fmt.Fprintf(w, "      depth => %d\n", m.Depth)
		fmt.Fprintf(w, "      read-latency => 0\n      write-latency => 1\n")
		for i := range reads[m] {
			fmt.Fprintf(w, "      reader => r%d\n", i)
		}
		for i := range writesOf[m] {
			fmt.Fprintf(w, "      writer => w%d\n", i)
		}
	}

	// Declarations in topological order so every reference is declared
	// before use (the parser requires it).
	order, err := g.TopoOrder()
	if err != nil {
		return err
	}
	// Registers first (they may be referenced before their position in the
	// topological order, which sorts by next-value dependence).
	for _, n := range g.Nodes {
		if n == nil || n.Kind != ir.KindReg {
			continue
		}
		init := bitvec.Pad(n.Init, n.Width)
		switch {
		case n.ResetSig != nil:
			fmt.Fprintf(w, "    reg %s : UInt<%d>, clock with : (reset => (%s, UInt<%d>(\"h%s\")))\n",
				names[n], n.Width, names[n.ResetSig], n.Width, hexBody(init))
		case !init.IsZero():
			// FIRRTL has no bare power-on init; a never-asserted reset
			// carries the value (the elaborator records constant init
			// values as the register's initial state).
			fmt.Fprintf(w, "    reg %s : UInt<%d>, clock with : (reset => (UInt<1>(0), UInt<%d>(\"h%s\")))\n",
				names[n], n.Width, n.Width, hexBody(init))
		default:
			fmt.Fprintf(w, "    reg %s : UInt<%d>, clock\n", names[n], n.Width)
		}
	}
	pr := &printer{names: names, memNames: memNames}
	memPortIdx := map[*ir.Node]string{}
	for _, m := range g.Mems {
		for i, rp := range reads[m] {
			memPortIdx[rp] = fmt.Sprintf("%s.r%d", memNames[m], i)
		}
		for i, wp := range writesOf[m] {
			memPortIdx[wp] = fmt.Sprintf("%s.w%d", memNames[m], i)
		}
	}
	for _, id := range order {
		n := g.Nodes[id]
		switch n.Kind {
		case ir.KindComb:
			fmt.Fprintf(w, "    node %s = %s\n", names[n], pr.expr(n.Expr))
		case ir.KindMemRead:
			port := memPortIdx[n]
			fmt.Fprintf(w, "    %s.addr <= %s\n", port, pr.expr(n.Expr))
			fmt.Fprintf(w, "    %s.en <= UInt<1>(1)\n", port)
			fmt.Fprintf(w, "    %s.clk <= clock\n", port)
			fmt.Fprintf(w, "    node %s = %s.data\n", names[n], port)
		case ir.KindMemWrite:
			port := memPortIdx[n]
			fmt.Fprintf(w, "    %s.addr <= %s\n", port, pr.expr(n.WAddr))
			fmt.Fprintf(w, "    %s.data <= %s\n", port, pr.expr(n.WData))
			fmt.Fprintf(w, "    %s.en <= %s\n", port, pr.expr(n.WEn))
			fmt.Fprintf(w, "    %s.clk <= clock\n", port)
			fmt.Fprintf(w, "    %s.mask <= UInt<1>(1)\n", port)
		}
	}
	// Register connects after all nodes exist.
	for _, n := range g.Nodes {
		if n != nil && n.Kind == ir.KindReg {
			fmt.Fprintf(w, "    %s <= %s\n", names[n], pr.expr(n.Expr))
		}
	}
	for _, n := range outputs {
		fmt.Fprintf(w, "    %s <= %s\n", ports[n], pr.expr(ir.Ref(n)))
	}
	return nil
}

type printer struct {
	names    map[*ir.Node]string
	memNames map[*ir.Memory]string
}

func (p *printer) expr(e *ir.Expr) string {
	switch e.Op {
	case ir.OpRef:
		return p.names[e.Node]
	case ir.OpConst:
		return fmt.Sprintf("UInt<%d>(\"h%s\")", e.Width, hexBody(e.Imm))
	case ir.OpBits:
		return fmt.Sprintf("bits(%s, %d, %d)", p.expr(e.Args[0]), e.Hi, e.Lo)
	case ir.OpShl, ir.OpShr:
		return fmt.Sprintf("%s(%s, %d)", e.Op, p.expr(e.Args[0]), e.Lo)
	case ir.OpPad:
		return fmt.Sprintf("pad(%s, %d)", p.expr(e.Args[0]), e.Width)
	case ir.OpSExt:
		// asSInt/pad/asUInt triple expresses sign extension in spec primops.
		return fmt.Sprintf("asUInt(pad(asSInt(%s), %d))", p.expr(e.Args[0]), e.Width)
	case ir.OpNeg:
		// neg(UInt<w>) is SInt<w+1>; asUInt gives the IR's two's complement.
		return fmt.Sprintf("asUInt(neg(%s))", p.expr(e.Args[0]))
	case ir.OpSLt, ir.OpSLeq, ir.OpSGt, ir.OpSGeq:
		op := map[ir.Op]string{ir.OpSLt: "lt", ir.OpSLeq: "leq", ir.OpSGt: "gt", ir.OpSGeq: "geq"}[e.Op]
		return fmt.Sprintf("%s(asSInt(%s), asSInt(%s))", op, p.expr(e.Args[0]), p.expr(e.Args[1]))
	default:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = p.expr(a)
		}
		s := fmt.Sprintf("%s(%s)", e.Op, strings.Join(args, ", "))
		// Width-growing ops whose FIRRTL result may exceed the IR width are
		// truncated back explicitly.
		want := e.Width
		got := ir.ResultWidth(e.Op, argW(e, 0), argW(e, 1), e.Lo)
		if e.Op == ir.OpMux {
			got = want
		}
		if got > want {
			s = fmt.Sprintf("tail(%s, %d)", s, got-want)
		} else if got < want {
			s = fmt.Sprintf("pad(%s, %d)", s, want)
		}
		return s
	}
}

func argW(e *ir.Expr, i int) int {
	if i < len(e.Args) {
		return e.Args[i].Width
	}
	return 0
}

func hexBody(v bitvec.BV) string {
	s := v.String()
	if i := strings.Index(s, "'h"); i >= 0 {
		return s[i+2:]
	}
	return s
}

func sanitizeID(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
			sb.WriteByte(c)
		case c >= '0' && c <= '9':
			if sb.Len() == 0 {
				sb.WriteByte('_')
			}
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return strings.Trim(sb.String(), "_")
}

// unusedSortImport keeps the import list stable across edits.
var _ = sort.Ints
