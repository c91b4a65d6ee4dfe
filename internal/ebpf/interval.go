package ebpf

import (
	"math"
	"math/bits"
)

// Interval is the unsigned range [Lo, Hi] a 64-bit register may hold:
// the one abstract domain of this ISA. Verify tracks one per register
// and gofront's checkBounds one per virtual register, and both get
// every transfer and refinement from here, so the frontend can never
// prove a bound the verifier then fails to.
//
// The contract, pinned by TestIntervalSound, is soundness against the
// exact functions beside Run: for a in A and b in B, ALU(op, w, A, B)
// contains EvalALU(op, w, a, b), and Refine on an edge keeps every
// (a, b) for which EvalJump takes that edge. Exact operands give the
// exact result, and both functions are monotone in their operands.
type Interval struct{ Lo, Hi uint64 }

// Top is every 64-bit value: what is known about an unknown scalar.
var Top = Interval{0, math.MaxUint64}

// Exact is the interval holding only v.
func Exact(v uint64) Interval { return Interval{v, v} }

// IsExact reports whether a holds a single known value.
func (a Interval) IsExact() bool { return a.Lo == a.Hi }

// Join is the smallest interval containing both a and b: the state
// after two paths merge.
func (a Interval) Join(b Interval) Interval {
	return Interval{min(a.Lo, b.Lo), max(a.Hi, b.Hi)}
}

// Trunc32 is the range of the low 32 bits of a value in a,
// zero-extended: what a 32-bit operation sees of an operand and leaves
// as its result. Values sharing their high half keep their order;
// anything wider may wrap.
func (a Interval) Trunc32() Interval {
	if a.Lo>>32 == a.Hi>>32 {
		return Interval{a.Lo & math.MaxUint32, a.Hi & math.MaxUint32}
	}
	return ZeroExt(32)
}

// ZeroExt is the range of a zero-extended value of the given width in
// bits: a 1/2/4/8-byte load, or a 16/32/64-bit byte-order conversion.
func ZeroExt(width int) Interval {
	if width >= 64 {
		return Top
	}
	return Interval{0, 1<<width - 1}
}

// ALU is the range of EvalALU(op, is32, x, y) over x in a and y in b.
// It is Top for the opcodes EvalALU does not evaluate.
func ALU(op uint8, is32 bool, a, b Interval) Interval {
	if _, ok := EvalALU(op, is32, 0, 0); !ok {
		return Top
	}
	if is32 {
		a, b = a.Trunc32(), b.Trunc32()
	}
	if a.IsExact() && b.IsExact() {
		r, _ := EvalALU(op, is32, a.Lo, b.Lo)
		return Exact(r)
	}
	// On truncated operands every op below agrees with its 64-bit form
	// up to the final truncation (a 32-bit shift only in its count mask).
	r := alu64(op, a, b, shiftMask(is32))
	if is32 {
		r = r.Trunc32()
	}
	return r
}

// alu64 transfers intervals through a 64-bit op whose shift counts are
// taken modulo mask+1. Anything that may wrap, and the signed ops, go
// to Top.
func alu64(op uint8, a, b Interval, mask uint64) Interval {
	switch op {
	case ALUMov:
		return b
	case ALUAdd:
		if hi, carry := bits.Add64(a.Hi, b.Hi, 0); carry == 0 {
			return Interval{a.Lo + b.Lo, hi}
		}
	case ALUSub:
		if a.Lo >= b.Hi {
			return Interval{a.Lo - b.Hi, a.Hi - b.Lo}
		}
	case ALUMul:
		if over, hi := bits.Mul64(a.Hi, b.Hi); over == 0 {
			return Interval{a.Lo * b.Lo, hi}
		}
	case ALUDiv:
		// Division by zero yields 0, so a divisor range that reaches 0
		// only adds 0 to what division by 1 and up can produce.
		switch {
		case b.Hi == 0:
			return Exact(0)
		case b.Lo == 0:
			return Interval{0, a.Hi}
		}
		return Interval{a.Lo / b.Hi, a.Hi / b.Lo}
	case ALUMod:
		// x%y <= x always (modulo by zero keeps x), x%y < y for y > 0,
		// and x%y == x for x < y.
		if a.Hi < b.Lo {
			return a
		}
		if b.Lo > 0 {
			return Interval{0, min(a.Hi, b.Hi-1)}
		}
		return Interval{0, a.Hi}
	case ALUAnd:
		return Interval{0, min(a.Hi, b.Hi)}
	case ALUOr:
		return Interval{max(a.Lo, b.Lo), orMax(a, b)}
	case ALUXor:
		return Interval{0, orMax(a, b)}
	case ALULsh, ALURsh:
		if b.IsExact() {
			b = Exact(b.Lo & mask)
		}
		if b.Hi > mask { // the count may wrap
			if op == ALURsh {
				return Interval{0, a.Hi}
			}
			return Top
		}
		if op == ALURsh {
			return Interval{a.Lo >> b.Hi, a.Hi >> b.Lo}
		}
		if hi := a.Hi << b.Hi; hi>>b.Hi == a.Hi {
			return Interval{a.Lo << b.Lo, hi}
		}
	}
	return Top
}

// orMax bounds x|y, and so x^y, from above: neither sets a bit above
// the operands' highest, and neither exceeds x+y.
func orMax(a, b Interval) uint64 {
	hi := uint64(1)<<bits.Len64(a.Hi|b.Hi) - 1
	if sum, carry := bits.Add64(a.Hi, b.Hi, 0); carry == 0 {
		hi = min(hi, sum)
	}
	return hi
}

// Refine narrows a and b to the pairs (x, y) for which the branch
// `x jop y` goes the given way, EvalJump(jop, is32, x, y) == taken, and
// reports whether there are any: an infeasible edge is dead and its
// successor state must not be merged. Only the unsigned orders and
// (in)equality narrow; for the rest a and b come back as they were.
func Refine(jop uint8, is32, taken bool, a, b Interval) (ra, rb Interval, feasible bool) {
	ra, rb = a, b
	if is32 {
		// JMP32 compares low halves; what it learns holds for the whole
		// register only where the high half is known to be zero.
		ra, rb = a.Trunc32(), b.Trunc32()
	}
	if ra.IsExact() && rb.IsExact() {
		t, ok := EvalJump(jop, is32, ra.Lo, rb.Lo)
		return a, b, !ok || t == taken
	}
	if !taken {
		neg, ok := NegJump(jop)
		if !ok {
			return a, b, true
		}
		jop = neg
	}
	switch jop {
	case JmpEq:
		ra = Interval{max(ra.Lo, rb.Lo), min(ra.Hi, rb.Hi)}
		rb = ra
	case JmpNe:
		ra, rb = trimEndpoints(ra, rb), trimEndpoints(rb, ra)
	case JmpLt:
		ra, rb = below(ra, rb, 1)
	case JmpLe:
		ra, rb = below(ra, rb, 0)
	case JmpGt:
		rb, ra = below(rb, ra, 1)
	case JmpGe:
		rb, ra = below(rb, ra, 0)
	default:
		return a, b, true
	}
	if ra.Lo > ra.Hi || rb.Lo > rb.Hi {
		return a, b, false
	}
	if is32 && a.Hi > math.MaxUint32 {
		ra = a
	}
	if is32 && b.Hi > math.MaxUint32 {
		rb = b
	}
	return ra, rb, true
}

// NegJump is the branch taken exactly when jop is not; ok is false
// where the ISA has none (ja, jset, call, exit).
func NegJump(jop uint8) (neg uint8, ok bool) {
	switch jop {
	case JmpEq:
		return JmpNe, true
	case JmpNe:
		return JmpEq, true
	case JmpGt:
		return JmpLe, true
	case JmpGe:
		return JmpLt, true
	case JmpLt:
		return JmpGe, true
	case JmpLe:
		return JmpGt, true
	case JmpSGt:
		return JmpSLe, true
	case JmpSGe:
		return JmpSLt, true
	case JmpSLt:
		return JmpSGe, true
	case JmpSLe:
		return JmpSGt, true
	}
	return 0, false
}

// below narrows x and y under x+strict <= y (strict is 0 or 1); an
// empty result has Lo > Hi.
func below(x, y Interval, strict uint64) (Interval, Interval) {
	if y.Hi < strict || x.Lo > y.Hi-strict {
		return Interval{1, 0}, y
	}
	x.Hi = min(x.Hi, y.Hi-strict)
	y.Lo = max(y.Lo, x.Lo+strict)
	return x, y
}

// trimEndpoints narrows x under x != y: an exact y that sits on one of
// x's endpoints moves that endpoint in.
func trimEndpoints(x, y Interval) Interval {
	if !y.IsExact() {
		return x
	}
	if x.Lo == y.Lo {
		x.Lo++
	} else if x.Hi == y.Lo {
		x.Hi--
	}
	return x
}
