package gofront

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// parse loads the file and processes every top-level declaration:
// constants, struct layouts, helper intrinsics, map directives, and
// the single exported entry function. Declarations are processed in
// source order, so types must be declared before use.
func (c *compiler) parse(filename string, src []byte) error {
	file, err := parser.ParseFile(c.fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		// Surface the parser's own errors as subset-stmt diagnostics so
		// callers see a DiagList either way.
		c.errs.add(token.Pos(1), RuleStmt, "parse error: %v", err)
		return c.errs.err()
	}
	if len(file.Imports) > 0 {
		c.errs.add(file.Imports[0].Pos(), RuleImport,
			"imports are outside the restricted subset; programs are self-contained")
	}
	c.scanMapDirectives(file)
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			c.parseGenDecl(d)
		case *ast.FuncDecl:
			c.parseFuncDecl(d)
		}
	}
	if c.entry == nil && len(c.errs.list) == 0 {
		c.errs.add(file.Name.Pos(), RuleEntry,
			"no entry point: declare exactly one exported func Name(ctx *T) uintN with a body")
	}
	c.applyConstOverrides()
	return c.errs.err()
}

func (c *compiler) parseGenDecl(d *ast.GenDecl) {
	switch d.Tok {
	case token.IMPORT:
		// already reported via file.Imports
	case token.CONST:
		for _, spec := range d.Specs {
			vs := spec.(*ast.ValueSpec)
			if len(vs.Values) != len(vs.Names) {
				c.errs.add(vs.Pos(), RuleConst,
					"constants need explicit values (implicit repetition and iota are not supported)")
				continue
			}
			// Typed constants are allowed only with integer types; the
			// value itself stays untyped in the model.
			if vs.Type != nil {
				id, ok := vs.Type.(*ast.Ident)
				if !ok {
					c.errs.add(vs.Type.Pos(), RuleConst, "constants must be untyped or fixed-width integers")
					continue
				}
				if _, ok := intTypes[id.Name]; !ok {
					c.errs.add(vs.Type.Pos(), RuleConst, "constants must be untyped or fixed-width integers")
					continue
				}
			}
			for i, name := range vs.Names {
				v, ok := c.constExpr(vs.Values[i], c.pkgConst, true)
				if !ok {
					continue
				}
				if _, dup := c.consts[name.Name]; dup {
					c.errs.add(name.Pos(), RuleConst, "constant %s redeclared", name.Name)
					continue
				}
				c.consts[name.Name] = v
			}
		}
	case token.TYPE:
		for _, spec := range d.Specs {
			ts := spec.(*ast.TypeSpec)
			if ts.Assign.IsValid() {
				c.errs.add(ts.Pos(), RuleTypes, "type aliases are not supported")
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				c.errs.add(ts.Type.Pos(), RuleTypes,
					"only struct type declarations are supported (integers are built in)")
				continue
			}
			if _, dup := c.structs[ts.Name.Name]; dup {
				c.errs.add(ts.Name.Pos(), RuleTypes, "type %s redeclared", ts.Name.Name)
				continue
			}
			c.structs[ts.Name.Name] = c.layoutStruct(ts.Name.Name, st)
		}
	case token.VAR:
		c.errs.add(d.Pos(), RuleStmt,
			"global variables are outside the restricted subset (programs have no data segment)")
	}
}

func (c *compiler) parseFuncDecl(d *ast.FuncDecl) {
	if d.Recv != nil {
		c.errs.add(d.Pos(), RuleStmt, "methods are outside the restricted subset")
		return
	}
	if d.Body == nil {
		c.parseHelperDecl(d)
		return
	}
	if !ast.IsExported(d.Name.Name) {
		c.errs.add(d.Pos(), RuleEntry,
			"unexported function %s has a body; only the single exported entry point may (helpers are bodyless intrinsics)", d.Name.Name)
		return
	}
	if c.entry != nil {
		c.errs.add(d.Pos(), RuleEntry, "second exported function %s; the entry point must be unique", d.Name.Name)
		return
	}
	c.entry = d
	c.checkEntrySig(d)
}

// checkEntrySig enforces the entry shape: func Name(ctx *Struct) uintN.
func (c *compiler) checkEntrySig(d *ast.FuncDecl) {
	ft := d.Type
	bad := func(format string, args ...any) {
		c.errs.add(d.Pos(), RuleEntry, format, args...)
	}
	if ft.TypeParams != nil {
		bad("type parameters are outside the restricted subset")
		return
	}
	if ft.Params == nil || len(ft.Params.List) != 1 || len(ft.Params.List[0].Names) != 1 {
		bad("entry point must take exactly one parameter: the context pointer")
		return
	}
	p := ft.Params.List[0]
	pt, ok := c.resolveType(p.Type)
	if !ok {
		return
	}
	ptr, ok := pt.(PtrType)
	if !ok {
		bad("entry parameter must be a pointer to the context struct, got %s", pt)
		return
	}
	st, ok := ptr.Elem.(*StructType)
	if !ok {
		bad("entry parameter must point at a struct, got %s", ptr.Elem)
		return
	}
	c.ctxType = st
	c.ctxName = p.Names[0].Name
	if ft.Results == nil || len(ft.Results.List) != 1 || len(ft.Results.List[0].Names) != 0 {
		bad("entry point must return exactly one unnamed integer (the program's r0 verdict)")
		return
	}
	rt, ok := c.resolveType(ft.Results.List[0].Type)
	if !ok {
		return
	}
	it, ok := rt.(IntType)
	if !ok {
		bad("entry point must return an integer, got %s", rt)
		return
	}
	c.retType = it
}

// parseHelperDecl registers a bodyless function as an intrinsic. The
// //hyperion:helper directive in its doc comment supplies the helper
// id passed to the ISA's call instruction.
func (c *compiler) parseHelperDecl(d *ast.FuncDecl) {
	id, ok := helperDirective(d.Doc)
	if !ok {
		c.errs.add(d.Pos(), RuleHelperSig,
			"bodyless function %s needs a //hyperion:helper <id> directive in its doc comment", d.Name.Name)
		return
	}
	h := &helperDecl{name: d.Name.Name, id: id, pos: d.Pos()}
	if d.Type.Params != nil {
		for _, p := range d.Type.Params.List {
			t, tok := c.resolveType(p.Type)
			if !tok {
				return
			}
			switch tt := t.(type) {
			case IntType:
			case PtrType:
				if _, isInt := tt.Elem.(IntType); !isInt {
					c.errs.add(p.Type.Pos(), RuleHelperSig,
						"helper pointer parameters must point at integers, got %s", tt)
					return
				}
			default:
				c.errs.add(p.Type.Pos(), RuleHelperSig,
					"helper parameters must be integers or pointers to integers, got %s", t)
				return
			}
			n := len(p.Names)
			if n == 0 {
				n = 1
			}
			for i := 0; i < n; i++ {
				h.params = append(h.params, t)
			}
		}
	}
	if len(h.params) > 5 {
		c.errs.add(d.Pos(), RuleHelperSig, "helper %s takes %d parameters; the ABI passes at most 5 (r1–r5)", d.Name.Name, len(h.params))
		return
	}
	if d.Type.Results != nil {
		if len(d.Type.Results.List) != 1 {
			c.errs.add(d.Pos(), RuleHelperSig, "helpers return at most one value (r0)")
			return
		}
		t, tok := c.resolveType(d.Type.Results.List[0].Type)
		if !tok {
			return
		}
		switch tt := t.(type) {
		case IntType:
		case PtrType:
			if _, isInt := tt.Elem.(IntType); !isInt {
				c.errs.add(d.Pos(), RuleHelperSig, "helper pointer results must point at integers, got %s", tt)
				return
			}
		default:
			c.errs.add(d.Pos(), RuleHelperSig, "helper results must be integers or pointers to integers, got %s", t)
			return
		}
		h.result = t
	}
	if _, dup := c.helpers[h.name]; dup {
		c.errs.add(d.Pos(), RuleHelperSig, "helper %s redeclared", h.name)
		return
	}
	c.helpers[h.name] = h
}

// helperDirective extracts the id from "//hyperion:helper <id>".
func helperDirective(doc *ast.CommentGroup) (int64, bool) {
	if doc == nil {
		return 0, false
	}
	for _, cm := range doc.List {
		rest, found := strings.CutPrefix(cm.Text, "//hyperion:helper")
		if !found {
			continue
		}
		id, err := strconv.ParseInt(strings.TrimSpace(rest), 0, 32)
		if err != nil {
			return 0, false
		}
		return id, true
	}
	return 0, false
}

// scanMapDirectives collects //hyperion:map lines anywhere in the
// file's comments: "//hyperion:map name id=0 key=4 value=8 entries=65536".
func (c *compiler) scanMapDirectives(file *ast.File) {
	for _, cg := range file.Comments {
		for _, cm := range cg.List {
			rest, found := strings.CutPrefix(cm.Text, "//hyperion:map")
			if !found {
				continue
			}
			md, ok := parseMapDirective(strings.TrimSpace(rest))
			if !ok {
				c.errs.add(cm.Pos(), RuleDirect,
					"malformed map directive; expected //hyperion:map <name> id=N key=N value=N [entries=N]")
				continue
			}
			c.maps = append(c.maps, md)
		}
	}
	sort.SliceStable(c.maps, func(i, j int) bool { return c.maps[i].ID < c.maps[j].ID })
}

func parseMapDirective(s string) (MapDecl, bool) {
	fields := strings.Fields(s)
	if len(fields) < 4 {
		return MapDecl{}, false
	}
	md := MapDecl{Name: fields[0], ID: -1, Entries: 1 << 16}
	for _, f := range fields[1:] {
		k, v, found := strings.Cut(f, "=")
		if !found {
			return MapDecl{}, false
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return MapDecl{}, false
		}
		switch k {
		case "id":
			md.ID = n
		case "key":
			md.KeySize = n
		case "value":
			md.ValueSize = n
		case "entries":
			md.Entries = n
		default:
			return MapDecl{}, false
		}
	}
	if md.ID < 0 || md.KeySize <= 0 || md.ValueSize <= 0 || md.Entries <= 0 {
		return MapDecl{}, false
	}
	return md, true
}

// applyConstOverrides rebinds named constants from Options.Consts.
func (c *compiler) applyConstOverrides() {
	names := make([]string, 0, len(c.opts.Consts))
	for name := range c.opts.Consts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := c.consts[name]; !ok {
			c.errs.add(token.Pos(1), RuleConst,
				"const override %s does not name a declared constant", name)
			continue
		}
		c.consts[name] = constant.MakeInt64(c.opts.Consts[name])
	}
}
