package gofront

import (
	"go/ast"
	"go/constant"
	"go/token"
)

// Constant expressions are Go's: exact integers of any size while they
// are being computed (go/constant), so 0x8000000000000000/2 and 1<<70>>68
// mean what the Go spec says they mean, and range-checked only where a
// value has to become 64 bits: a declared constant, an array length, an
// operand of emitted code. Every constant is untyped here; a declared
// type on a const is validated and otherwise ignored.

// constScope resolves a name inside a constant expression to the value
// it is bound to there, or nil when it is not a constant. It is the one
// thing that differs between the contexts constants appear in: package
// level sees the declared constants, a function body sees its locals
// first (they shadow, and unrolled loop variables are per-copy
// constants).
type constScope func(name string) constant.Value

func (c *compiler) pkgConst(name string) constant.Value { return c.consts[name] }

// maxConstShift bounds a constant shift count, as compilers do; it keeps
// a hostile `1 << 1<<40` from being computed.
const maxConstShift = 512

// constExpr folds e: integer literals, names scope resolves, parentheses,
// unary + - ^ and the integer binary operators. It yields a value in
// [-1<<63, 1<<64), the range constBits can put in a register.
//
// Where must is set the context requires a constant and anything else is
// a diagnostic. Otherwise an expression that is simply not constant
// fails silently and the caller lowers it as code. An expression that is
// constant but that Go rejects (division by zero, a value past 64 bits)
// is a RuleConst diagnostic either way, and with must unset folds to 0 so
// that the lowering it falls through to does not report it twice.
func (c *compiler) constExpr(e ast.Expr, scope constScope, must bool) (constant.Value, bool) {
	reported := len(c.errs.list)
	v := constFolder{c, scope, must}.fold(e)
	if v != nil {
		_, fitsInt := constant.Int64Val(v)
		_, fitsUint := constant.Uint64Val(v)
		if !fitsInt && !fitsUint {
			c.errs.add(e.Pos(), RuleConst, "constant %s overflows 64 bits", v.ExactString())
			v = nil
		}
	}
	if v == nil && !must && len(c.errs.list) > reported {
		return constant.MakeInt64(0), true
	}
	return v, v != nil
}

// constBits is the 64-bit register image of a constant constExpr
// accepted: two's complement below zero, the value itself from 1<<63 up.
func constBits(v constant.Value) int64 {
	if i, ok := constant.Int64Val(v); ok {
		return i
	}
	u, _ := constant.Uint64Val(v)
	return int64(u)
}

type constFolder struct {
	c     *compiler
	scope constScope
	must  bool
}

// notConst reports, where a constant is required, why e is not one:
// msg, with what (a name or an operator) in front when there is one.
// The lenient path runs once per subexpression lowered, so the message
// is not built unless it is wanted.
func (f constFolder) notConst(pos token.Pos, rule, what, msg string) constant.Value {
	if f.must {
		if what != "" {
			msg = what + " " + msg
		}
		f.c.errs.add(pos, rule, "%s", msg)
	}
	return nil
}

// invalid reports a constant expression that has no value.
func (f constFolder) invalid(pos token.Pos, format string, args ...any) constant.Value {
	f.c.errs.add(pos, RuleConst, format, args...)
	return nil
}

func (f constFolder) fold(e ast.Expr) constant.Value {
	switch x := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		switch x.Kind {
		case token.INT:
			if v := constant.MakeFromLiteral(x.Value, token.INT, 0); v.Kind() == constant.Int {
				return v
			}
			return f.invalid(x.Pos(), "bad integer literal %s", x.Value)
		case token.STRING, token.CHAR:
			return f.notConst(x.Pos(), RuleString, "", "string values are outside the restricted subset (no dynamic memory)")
		case token.FLOAT, token.IMAG:
			return f.notConst(x.Pos(), RuleTypes, "", "floating-point values are outside the restricted subset")
		}
	case *ast.Ident:
		if v := f.scope(x.Name); v != nil {
			return v
		}
		if x.Name == "iota" {
			return f.notConst(x.Pos(), RuleConst, "", "iota is not supported; write explicit values")
		}
		return f.notConst(x.Pos(), RuleConst, x.Name, "is not a declared constant")
	case *ast.UnaryExpr:
		v := f.fold(x.X)
		if v == nil {
			return nil
		}
		switch x.Op {
		case token.ADD, token.SUB, token.XOR:
			return constant.UnaryOp(x.Op, v, 0)
		}
		return f.notConst(x.Pos(), RuleConst, x.Op.String(), "is not a supported constant operator")
	case *ast.BinaryExpr:
		a := f.fold(x.X)
		if a == nil {
			return nil
		}
		b := f.fold(x.Y)
		if b == nil {
			return nil
		}
		switch x.Op {
		case token.ADD, token.SUB, token.MUL, token.AND, token.OR, token.XOR:
			return constant.BinaryOp(a, x.Op, b)
		case token.QUO, token.REM:
			if constant.Sign(b) == 0 {
				return f.invalid(x.Pos(), "constant division by zero")
			}
			if x.Op == token.QUO {
				// QUO_ASSIGN is go/constant's spelling of integer division.
				return constant.BinaryOp(a, token.QUO_ASSIGN, b)
			}
			return constant.BinaryOp(a, token.REM, b)
		case token.SHL, token.SHR:
			n, ok := constant.Uint64Val(b)
			if !ok || n >= maxConstShift {
				return f.invalid(x.Y.Pos(), "constant shift count %s out of range", b.ExactString())
			}
			return constant.Shift(a, x.Op, uint(n))
		}
		return f.notConst(x.Pos(), RuleConst, x.Op.String(), "is not a supported constant operator")
	}
	return f.notConst(e.Pos(), RuleConst, "", "expression is not a compile-time constant")
}
