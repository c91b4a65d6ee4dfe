// Shifts mean what Go says: a count at or past the operand's width
// yields 0 in Go and a masked count in the ISA, so a variable count is
// an obligation like an array index. g and h compile: the guard and the
// mask are the proofs.
package prog

type Ctx struct {
	A uint64
	B uint64 `hyperion:"offset=8"`
	N uint8  `hyperion:"offset=16"`
}

func Entry(ctx *Ctx) uint64 {
	a := ctx.A
	b := ctx.B
	e := a >> b // want 12 "cannot prove the shift count stays below 64 for uint64 (value is unbounded here)" array-bounds
	n := uint64(ctx.N)
	f := uint32(a) << n // want 20 "cannot prove the shift count stays below 32 for uint32 (possible range [0, 255])" array-bounds
	a <<= b             // want 8 "cannot prove the shift count stays below 64 for uint64 (value is unbounded here)" array-bounds
	if b > 63 {
		return 0
	}
	g := a >> b
	h := uint32(a) >> (n & 31)
	return e + uint64(f) + g + uint64(h)
}
