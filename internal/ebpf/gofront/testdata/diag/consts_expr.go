// Inside the entry function a constant subexpression folds exactly
// too, and is reported once where Go would refuse it.
package prog

const Top = 0x8000000000000000

type Ctx struct {
	A uint64
}

func Entry(ctx *Ctx) uint64 {
	a := ctx.A
	a += Top / 2
	a += Top * 2     // want 7 "constant 18446744073709551616 overflows 64 bits" const
	a += 7 % (2 - 2) // want 7 "constant division by zero" const
	return a
}
