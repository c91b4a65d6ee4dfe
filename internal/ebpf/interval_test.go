package ebpf

import (
	"math"
	"math/rand"
	"testing"
)

// The interval domain is pinned to the exact functions the way those
// are pinned to Run: EvalALU and EvalJump are the oracle, evaluated on
// every member pair of small operand sets, and ALU and Refine on the
// sets' hulls have to agree with all of them.

func hull(vs []uint64) Interval {
	iv := Exact(vs[0])
	for _, v := range vs[1:] {
		iv = iv.Join(Exact(v))
	}
	return iv
}

func (a Interval) has(v uint64) bool      { return a.Lo <= v && v <= a.Hi }
func (a Interval) within(b Interval) bool { return b.Lo <= a.Lo && a.Hi <= b.Hi }

// checkIntervalSound holds ALU and Refine, for the opcode nibble op at
// one width, to their contract on the operand sets as and bs:
//
//   - soundness: ALU of the hulls contains EvalALU of every member pair,
//     and is Top wherever EvalALU does not evaluate op; Refine on either
//     edge keeps every pair EvalJump sends down that edge, so it reports
//     an edge infeasible only when no pair takes it, and never widens;
//   - precision floor: exact operands give exactly EvalALU's result, and
//     an edge is feasible for them exactly when EvalJump takes it;
//   - monotonicity: narrowing the operands (to the hulls of the sets'
//     prefixes) never widens a result or revives a dead edge.
func checkIntervalSound(t *testing.T, op uint8, is32 bool, as, bs []uint64) {
	t.Helper()
	A, B := hull(as), hull(bs)
	subA, subB := hull(as[:1+len(as)/2]), hull(bs[:1+len(bs)/2])

	R := ALU(op, is32, A, B)
	for _, a := range as {
		for _, b := range bs {
			r, ok := EvalALU(op, is32, a, b)
			if !ok {
				if R != Top {
					t.Fatalf("ALU(%#x, is32=%v, %v, %v) = %v for an op EvalALU does not evaluate, want Top", op, is32, A, B, R)
				}
				continue
			}
			if !R.has(r) {
				t.Fatalf("ALU(%#x, is32=%v, %v, %v) = %v misses EvalALU(%#x, %#x) = %#x", op, is32, A, B, R, a, b, r)
			}
			if got := ALU(op, is32, Exact(a), Exact(b)); got != Exact(r) {
				t.Fatalf("ALU(%#x, is32=%v, {%#x}, {%#x}) = %v, EvalALU says %#x", op, is32, a, b, got, r)
			}
		}
	}
	if sub := ALU(op, is32, subA, subB); !sub.within(R) {
		t.Fatalf("ALU(%#x, is32=%v) not monotone: %v, %v -> %v but %v, %v -> %v", op, is32, subA, subB, sub, A, B, R)
	}

	for _, taken := range []bool{true, false} {
		ra, rb, feasible := Refine(op, is32, taken, A, B)
		if !ra.within(A) || !rb.within(B) {
			t.Fatalf("Refine(%#x, is32=%v, taken=%v, %v, %v) widened to %v, %v", op, is32, taken, A, B, ra, rb)
		}
		for _, a := range as {
			for _, b := range bs {
				tk, ok := EvalJump(op, is32, a, b)
				if !ok {
					if !feasible || ra != A || rb != B {
						t.Fatalf("Refine(%#x) narrowed on an op EvalJump does not evaluate", op)
					}
					continue
				}
				if tk == taken && (!feasible || !ra.has(a) || !rb.has(b)) {
					t.Fatalf("Refine(%#x, is32=%v, taken=%v, %v, %v) = %v, %v, %v drops (%#x, %#x), which goes that way",
						op, is32, taken, A, B, ra, rb, feasible, a, b)
				}
				if _, _, f := Refine(op, is32, taken, Exact(a), Exact(b)); f != (tk == taken) {
					t.Fatalf("Refine(%#x, is32=%v, taken=%v, {%#x}, {%#x}) feasible=%v, EvalJump says taken=%v", op, is32, taken, a, b, f, tk)
				}
				if neg, ok := NegJump(op); ok {
					if ntk, _ := EvalJump(neg, is32, a, b); ntk == tk {
						t.Fatalf("NegJump(%#x) = %#x, but both go the same way on (%#x, %#x)", op, neg, a, b)
					}
				}
			}
		}
		sa, sb, subFeasible := Refine(op, is32, taken, subA, subB)
		if subFeasible && (!feasible || !sa.within(ra) || !sb.within(rb)) {
			t.Fatalf("Refine(%#x, is32=%v, taken=%v) not monotone: %v, %v -> %v, %v but %v, %v -> %v, %v, %v",
				op, is32, taken, subA, subB, sa, sb, A, B, ra, rb, feasible)
		}
	}
}

// intervalEdges are the operands where the transfer functions change
// behaviour: shift-count masks, the 32-bit width, the sign bits, wrap.
var intervalEdges = []uint64{
	0, 1, 2, 3, 7, 8, 15, 16, 30, 31, 32, 33, 62, 63, 64, 65, 255,
	1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<33 - 1,
	1<<62 - 1, 1 << 62, 1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64,
}

// operandSet draws a small set that is usually a tight cluster at an
// edge, so that its hull stays narrow enough to say something, and
// sometimes anything at all.
func operandSet(r *rand.Rand) []uint64 {
	vs := make([]uint64, 1+r.Intn(4))
	base := intervalEdges[r.Intn(len(intervalEdges))]
	for i := range vs {
		switch r.Intn(8) {
		case 0:
			vs[i] = r.Uint64()
		case 1:
			vs[i] = intervalEdges[r.Intn(len(intervalEdges))]
		default:
			vs[i] = base + uint64(r.Intn(17)) - 8
		}
	}
	return vs
}

func TestIntervalSound(t *testing.T) {
	r := rand.New(rand.NewSource(0x1a7e))
	for op := 0; op < 0x100; op += 0x10 {
		for _, is32 := range []bool{false, true} {
			for i := 0; i < 3000; i++ {
				checkIntervalSound(t, uint8(op), is32, operandSet(r), operandSet(r))
			}
		}
	}
}

// TestIntervalWidths pins the three width facts the verifier and the
// frontend used to spell out in switches of their own.
func TestIntervalWidths(t *testing.T) {
	for _, tc := range []struct {
		got, want Interval
	}{
		{ZeroExt(8), Interval{0, 0xff}},
		{ZeroExt(16), Interval{0, 0xffff}},
		{ZeroExt(32), Interval{0, 0xffffffff}},
		{ZeroExt(64), Top},
		{Interval{5, 1 << 40}.Trunc32(), Interval{0, 0xffffffff}},
		{Interval{1<<40 + 5, 1<<40 + 9}.Trunc32(), Interval{5, 9}},
		{Interval{1<<32 - 1, 1 << 32}.Trunc32(), Interval{0, 0xffffffff}},
		{Exact(1<<63 + 7).Trunc32(), Exact(7)},
	} {
		if tc.got != tc.want {
			t.Errorf("got %v, want %v", tc.got, tc.want)
		}
	}
}

// FuzzIntervalSound is checkIntervalSound on whatever operands the
// fuzzer finds, three a side; testdata/fuzz/FuzzIntervalSound seeds it
// with one case per place a transfer function changes its answer.
func FuzzIntervalSound(f *testing.F) {
	f.Fuzz(func(t *testing.T, op uint8, is32 bool, a0, a1, a2, b0, b1, b2 uint64) {
		checkIntervalSound(t, op&0xf0, is32, []uint64{a0, a1, a2}, []uint64{b0, b1, b2})
	})
}
