// Constant expressions are exact, as in Go, and must fit 64 bits where
// they are declared. Wide is fine: only its value is narrowed.
package prog

const Wide = 1 << 70 >> 8
const Big = 1 << 64      // want 13 "constant 18446744073709551616 overflows 64 bits" const
const Zero = 1 / 0       // want 14 "constant division by zero" const
const Far = 1 << 600     // want 18 "constant shift count 600 out of range" const
const Str = "x"          // want 13 "string values are outside the restricted subset (no dynamic memory)" no-string
const Next = Missing + 1 // want 14 "Missing is not a declared constant" const

type Ctx struct {
	A uint64
}

func Entry(ctx *Ctx) uint64 {
	return ctx.A + Wide
}
