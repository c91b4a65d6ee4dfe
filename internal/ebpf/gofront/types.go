package gofront

import (
	"fmt"
	"go/ast"
	"strconv"
	"strings"
)

// Type is the frontend's type model: fixed-size integers, fixed-size
// arrays, packed structs (with optional explicit field offsets), and
// pointers. Nothing here has a dynamic size, which is what lets every
// access lower to a constant displacement plus at most one scaled
// index.
type Type interface {
	Size() int
	String() string
}

// IntType is a fixed-width integer. Bits ∈ {8, 16, 32, 64}.
type IntType struct {
	Bits   int
	Signed bool
}

func (t IntType) Size() int { return t.Bits / 8 }
func (t IntType) String() string {
	if t.Signed {
		return fmt.Sprintf("int%d", t.Bits)
	}
	return fmt.Sprintf("uint%d", t.Bits)
}

// PtrType is a pointer to a sized value; it only arises as a helper
// argument (&local) or a helper return (*uint64 map values).
type PtrType struct{ Elem Type }

func (t PtrType) Size() int      { return 8 }
func (t PtrType) String() string { return "*" + t.Elem.String() }

// ArrayType is a fixed-length array.
type ArrayType struct {
	Elem Type
	N    int
}

func (t ArrayType) Size() int      { return t.N * t.Elem.Size() }
func (t ArrayType) String() string { return fmt.Sprintf("[%d]%s", t.N, t.Elem) }

// Field is one struct field with its resolved byte offset.
type Field struct {
	Name string
	Off  int
	Type Type
}

// StructType is a packed struct: fields lay out sequentially in
// declaration order unless a `hyperion:"offset=N"` tag pins them.
// Explicit offsets may overlap — that is the union escape hatch for
// wire formats whose variants share a header (e.g. B+ tree node
// pages).
type StructType struct {
	Name   string
	Fields []Field
	size   int
}

func (t *StructType) Size() int      { return t.size }
func (t *StructType) String() string { return t.Name }

func (t *StructType) field(name string) *Field {
	for i := range t.Fields {
		if t.Fields[i].Name == name {
			return &t.Fields[i]
		}
	}
	return nil
}

// intTypes maps source type names to the frontend's integer types.
// byte is uint8's alias, as in Go.
var intTypes = map[string]IntType{
	"uint8":  {Bits: 8},
	"byte":   {Bits: 8},
	"uint16": {Bits: 16},
	"uint32": {Bits: 32},
	"uint64": {Bits: 64},
	"int8":   {Bits: 8, Signed: true},
	"int16":  {Bits: 16, Signed: true},
	"int32":  {Bits: 32, Signed: true},
	"int64":  {Bits: 64, Signed: true},
}

// resolveType converts a type expression into the frontend model.
// structs must be declared as named types; anonymous structs are
// rejected to keep layout declarations in one place.
func (c *compiler) resolveType(e ast.Expr) (Type, bool) {
	switch t := e.(type) {
	case *ast.Ident:
		if it, ok := intTypes[t.Name]; ok {
			return it, true
		}
		switch t.Name {
		case "string":
			c.errs.add(t.Pos(), RuleString, "string values are outside the restricted subset (no dynamic memory)")
			return nil, false
		case "int", "uint", "uintptr":
			c.errs.add(t.Pos(), RuleTypes, "%s has platform-dependent size; use a fixed-width type (uint64, uint32, ...)", t.Name)
			return nil, false
		case "float32", "float64", "complex64", "complex128":
			c.errs.add(t.Pos(), RuleTypes, "%s is outside the restricted subset (integer types only)", t.Name)
			return nil, false
		case "bool":
			c.errs.add(t.Pos(), RuleTypes, "bool is outside the restricted subset; use uint8 with 0/1")
			return nil, false
		}
		if st, ok := c.structs[t.Name]; ok {
			return st, true
		}
		c.errs.add(t.Pos(), RuleTypes, "unknown type %s", t.Name)
		return nil, false
	case *ast.StarExpr:
		elem, ok := c.resolveType(t.X)
		if !ok {
			return nil, false
		}
		return PtrType{Elem: elem}, true
	case *ast.ArrayType:
		if t.Len == nil {
			c.errs.add(t.Pos(), RuleHeap, "slices are dynamically sized; declare a fixed-length array [N]T")
			return nil, false
		}
		v, ok := c.constExpr(t.Len, c.pkgConst, true)
		if !ok {
			return nil, false
		}
		n := constBits(v)
		if n <= 0 || n > 1<<20 {
			c.errs.add(t.Pos(), RuleTypes, "array length %d out of range", n)
			return nil, false
		}
		elem, ok := c.resolveType(t.Elt)
		if !ok {
			return nil, false
		}
		return ArrayType{Elem: elem, N: int(n)}, true
	case *ast.InterfaceType:
		c.errs.add(t.Pos(), RuleIface, "interface types are outside the restricted subset (no dynamic dispatch)")
		return nil, false
	case *ast.MapType:
		c.errs.add(t.Pos(), RuleHeap, "Go maps are heap-allocated; use the declared map intrinsics instead")
		return nil, false
	case *ast.ChanType:
		c.errs.add(t.Pos(), RuleConc, "channels are outside the restricted subset")
		return nil, false
	case *ast.FuncType:
		c.errs.add(t.Pos(), RuleTypes, "function types are outside the restricted subset")
		return nil, false
	case *ast.StructType:
		c.errs.add(t.Pos(), RuleTypes, "anonymous structs are not supported; declare a named type")
		return nil, false
	}
	c.errs.add(e.Pos(), RuleTypes, "unsupported type expression")
	return nil, false
}

// layoutStruct computes packed field offsets for a struct declaration,
// honoring `hyperion:"offset=N"` tags. Blank fields consume space
// (padding) but are not addressable.
func (c *compiler) layoutStruct(name string, st *ast.StructType) *StructType {
	out := &StructType{Name: name}
	next := 0
	for _, f := range st.Fields.List {
		ft, ok := c.resolveType(f.Type)
		if !ok {
			continue
		}
		off := next
		if f.Tag != nil {
			if v, ok2 := tagOffset(f.Tag.Value); ok2 {
				off = v
			} else if strings.Contains(f.Tag.Value, "hyperion") {
				c.errs.add(f.Tag.Pos(), RuleDirect, "malformed struct tag %s; expected `hyperion:\"offset=N\"`", f.Tag.Value)
			}
		}
		if len(f.Names) == 0 {
			c.errs.add(f.Pos(), RuleTypes, "embedded fields are not supported")
			continue
		}
		for _, id := range f.Names {
			if id.Name != "_" {
				out.Fields = append(out.Fields, Field{Name: id.Name, Off: off, Type: ft})
			}
			off += ft.Size()
		}
		next = off
		if off > out.size {
			out.size = off
		}
	}
	return out
}

// tagOffset parses `hyperion:"offset=N"` from a raw struct tag.
func tagOffset(raw string) (int, bool) {
	tag, err := strconv.Unquote(raw)
	if err != nil {
		return 0, false
	}
	val, ok := lookupTag(tag, "hyperion")
	if !ok {
		return 0, false
	}
	rest, found := strings.CutPrefix(val, "offset=")
	if !found {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// lookupTag is reflect.StructTag.Get without importing reflect.
func lookupTag(tag, key string) (string, bool) {
	for tag != "" {
		tag = strings.TrimLeft(tag, " ")
		i := strings.IndexByte(tag, ':')
		if i <= 0 {
			break
		}
		name := tag[:i]
		rest := tag[i+1:]
		if len(rest) < 2 || rest[0] != '"' {
			break
		}
		end := strings.IndexByte(rest[1:], '"')
		if end < 0 {
			break
		}
		val := rest[1 : 1+end]
		tag = rest[2+end:]
		if name == key {
			return val, true
		}
	}
	return "", false
}
