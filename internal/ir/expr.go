package ir

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"strconv"
	"strings"

	"gsim/internal/bitvec"
)

// Expr is a node in an expression tree. Leaves are OpRef (read a graph node)
// or OpConst. Width is the value's bit width; it is fixed at construction
// following the FIRRTL width rules and kept consistent by all rewrites.
type Expr struct {
	Op    Op
	Args  []*Expr
	Node  *Node     // OpRef target
	Imm   bitvec.BV // OpConst value
	Hi    int       // OpBits high index
	Lo    int       // OpBits low index; static amount for OpShl/OpShr
	Width int
}

// Ref returns an expression reading node n.
func Ref(n *Node) *Expr {
	if n == nil {
		panic("ir: Ref(nil)")
	}
	return &Expr{Op: OpRef, Node: n, Width: n.Width}
}

// Const returns a literal expression.
func Const(v bitvec.BV) *Expr {
	return &Expr{Op: OpConst, Imm: v, Width: v.Width}
}

// ConstUint returns a literal expression of the given width.
func ConstUint(width int, v uint64) *Expr {
	return Const(bitvec.FromUint64(width, v))
}

// Unary builds a unary expression with inferred width. For OpShl/OpShr the
// static amount is n; for OpPad/OpSExt, n is the target width.
func Unary(op Op, a *Expr, n int) *Expr {
	e := &Expr{Op: op, Args: []*Expr{a}, Width: ResultWidth(op, a.Width, 0, n)}
	if op == OpShl || op == OpShr {
		e.Lo = n
	}
	return e
}

// Binary builds a binary expression with inferred width.
func Binary(op Op, a, b *Expr) *Expr {
	return &Expr{Op: op, Args: []*Expr{a, b}, Width: ResultWidth(op, a.Width, b.Width, 0)}
}

// BitsOf builds args[hi:lo].
func BitsOf(a *Expr, hi, lo int) *Expr {
	if hi < lo || lo < 0 || hi >= a.Width {
		panic(fmt.Sprintf("ir: bits(%d,%d) out of range for width %d", hi, lo, a.Width))
	}
	return &Expr{Op: OpBits, Args: []*Expr{a}, Hi: hi, Lo: lo, Width: hi - lo + 1}
}

// MuxOf builds sel ? a : b. The arms must have equal width.
func MuxOf(sel, a, b *Expr) *Expr {
	if a.Width != b.Width {
		panic(fmt.Sprintf("ir: mux arm widths differ: %d vs %d", a.Width, b.Width))
	}
	if sel.Width != 1 {
		panic(fmt.Sprintf("ir: mux selector width %d != 1", sel.Width))
	}
	return &Expr{Op: OpMux, Args: []*Expr{sel, a, b}, Width: a.Width}
}

// Clone returns a deep copy of e. Node references are shared (they point at
// graph nodes), constants are copied.
func (e *Expr) Clone() *Expr {
	c := &Expr{Op: e.Op, Node: e.Node, Hi: e.Hi, Lo: e.Lo, Width: e.Width}
	if e.Op == OpConst {
		c.Imm = e.Imm.Clone()
	}
	if len(e.Args) > 0 {
		c.Args = make([]*Expr, len(e.Args))
		for i, a := range e.Args {
			c.Args[i] = a.Clone()
		}
	}
	return c
}

// Walk calls f on every sub-expression of e in post-order (children first).
func (e *Expr) Walk(f func(*Expr)) {
	for _, a := range e.Args {
		a.Walk(f)
	}
	f(e)
}

// WalkPtr calls f with a pointer to every expression slot reachable from the
// root pointer, in pre-order, so callers can replace sub-expressions in
// place. If f returns false the walk does not descend into the (possibly
// replaced) expression's children.
func WalkPtr(root **Expr, f func(**Expr) bool) {
	if *root == nil {
		return
	}
	if !f(root) {
		return
	}
	for i := range (*root).Args {
		WalkPtr(&(*root).Args[i], f)
	}
}

// Cost returns the total abstract evaluation cost of the tree — the sum of
// Op.Cost over every operator — matching the paper's cost(f(A)) metric.
func (e *Expr) Cost() int {
	c := e.Op.Cost()
	for _, a := range e.Args {
		c += a.Cost()
	}
	return c
}

// CountOps returns the number of non-leaf operators in the tree.
func (e *Expr) CountOps() int {
	n := 0
	if e.Op != OpRef && e.Op != OpConst {
		n = 1
	}
	for _, a := range e.Args {
		n += a.CountOps()
	}
	return n
}

// Refs appends the distinct nodes referenced by e to dst and returns it.
func (e *Expr) Refs(dst []*Node) []*Node {
	seen := map[*Node]bool{}
	for _, n := range dst {
		seen[n] = true
	}
	e.Walk(func(x *Expr) {
		if x.Op == OpRef && !seen[x.Node] {
			seen[x.Node] = true
			dst = append(dst, x.Node)
		}
	})
	return dst
}

// RefersTo reports whether e references node n anywhere.
func (e *Expr) RefersTo(n *Node) bool {
	found := false
	e.Walk(func(x *Expr) {
		if x.Op == OpRef && x.Node == n {
			found = true
		}
	})
	return found
}

// StructEq reports whether two trees are structurally identical: same ops,
// parameters, widths, constants, and referenced nodes.
func StructEq(a, b *Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.Op != b.Op || a.Width != b.Width || a.Hi != b.Hi || a.Lo != b.Lo {
		return false
	}
	switch a.Op {
	case OpRef:
		return a.Node == b.Node
	case OpConst:
		return a.Imm.Equal(b.Imm)
	}
	if len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !StructEq(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

var exprSeed = maphash.MakeSeed()

// Hash returns a structural hash of e, consistent with StructEq. It is
// built bottom-up: a tree's hash is HashNode of its root over its
// arguments' hashes, so a pass that needs the hash of every subtree gets
// them all from one post-order walk instead of rehashing at each level.
func (e *Expr) Hash() uint64 {
	var args [3]uint64 // no operator takes more than three arguments
	for i, a := range e.Args {
		args[i] = a.Hash()
	}
	return e.HashNode(args[:len(e.Args)])
}

// HashNode returns Hash(e) given the hashes of e's arguments, in order. It
// hashes e's own fields and the argument hashes as whole words.
func (e *Expr) HashNode(argHashes []uint64) uint64 {
	var buf [64]byte
	b := append(buf[:0], byte(e.Op))
	b = binary.LittleEndian.AppendUint32(b, uint32(e.Width))
	b = binary.LittleEndian.AppendUint32(b, uint32(e.Hi))
	b = binary.LittleEndian.AppendUint32(b, uint32(e.Lo))
	switch e.Op {
	case OpRef:
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Node.ID))
	case OpConst:
		for _, w := range e.Imm.W {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	for _, h := range argHashes {
		b = binary.LittleEndian.AppendUint64(b, h)
	}
	return maphash.Bytes(exprSeed, b)
}

// String renders the expression in FIRRTL-ish prefix form.
func (e *Expr) String() string {
	var sb strings.Builder
	e.format(&sb)
	return sb.String()
}

func (e *Expr) format(sb *strings.Builder) {
	switch e.Op {
	case OpRef:
		sb.WriteString(e.Node.Name)
	case OpConst:
		sb.WriteString("UInt<")
		sb.WriteString(strconv.Itoa(e.Width))
		sb.WriteString(">(")
		sb.WriteString(e.Imm.String())
		sb.WriteByte(')')
	case OpBits:
		sb.WriteString("bits(")
		e.Args[0].format(sb)
		sb.WriteString(", ")
		sb.WriteString(strconv.Itoa(e.Hi))
		sb.WriteString(", ")
		sb.WriteString(strconv.Itoa(e.Lo))
		sb.WriteByte(')')
	case OpShl, OpShr, OpPad, OpSExt:
		sb.WriteString(e.Op.String())
		sb.WriteByte('(')
		e.Args[0].format(sb)
		n := e.Lo
		if e.Op == OpPad || e.Op == OpSExt {
			n = e.Width
		}
		sb.WriteString(", ")
		sb.WriteString(strconv.Itoa(n))
		sb.WriteByte(')')
	default:
		sb.WriteString(e.Op.String())
		sb.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			a.format(sb)
		}
		sb.WriteByte(')')
	}
}
