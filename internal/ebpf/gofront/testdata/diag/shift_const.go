// A constant shift count is checked against the operand's width as the
// shift is lowered; the ISA would mask it.
package prog

type Ctx struct {
	A uint64
}

const Width = 64

func Entry(ctx *Ctx) uint64 {
	a := ctx.A
	c := uint32(a) >> 40 // want 20 "shift count 40 must be in [0, 32) for uint32 (the ISA masks the count; Go does not)" subset-expr
	d := a << Width      // want 12 "shift count 64 must be in [0, 64) for uint64 (the ISA masks the count; Go does not)" subset-expr
	a >>= 0 - 1          // want 8 "shift count -1 must be in [0, 64) for uint64 (the ISA masks the count; Go does not)" subset-expr
	return uint64(c) + d + a<<63
}
