package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

func parseDecl(t *testing.T, src string) *ast.FuncDecl {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "c.go", "package p\n\n"+src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return fd
		}
	}
	t.Fatal("no func decl")
	return nil
}

func TestParseDoc(t *testing.T) {
	tests := []struct {
		name    string
		src     string
		want    Contract
		wantErr int
	}{
		{
			name: "owns",
			src:  "// F allocates.\n//wire:owns\nfunc F() {}",
			want: Contract{Owns: true},
		},
		{
			name: "sends_field",
			src:  "//wire:sends f.Buf\nfunc F(f int) error { return nil }",
			want: Contract{Sends: []SendRef{{Param: "f", Field: "Buf"}}},
		},
		{
			name: "sends_bare_param",
			src:  "//wire:sends b\nfunc F(b int) error { return nil }",
			want: Contract{Sends: []SendRef{{Param: "b"}}},
		},
		{
			name:    "owns_with_arg_is_error",
			src:     "//wire:owns b\nfunc F() {}",
			wantErr: 1,
		},
		{
			name:    "sends_without_param_is_error",
			src:     "//wire:sends\nfunc F() {}",
			wantErr: 1,
		},
		{
			name:    "unknown_verb_is_error",
			src:     "//wire:yields b\nfunc F() {}",
			wantErr: 1,
		},
		{
			name:    "deep_field_path_is_error",
			src:     "//wire:sends f.A.B\nfunc F(f int) {}",
			wantErr: 1,
		},
		{
			name: "plain_comment_ignored",
			src:  "// F is ordinary; wire:owns in prose does not bind.\nfunc F() {}",
			want: Contract{},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fd := parseDecl(t, tt.src)
			got, errs := parseDoc(fd.Doc)
			if len(errs) != tt.wantErr {
				t.Fatalf("errs = %v, want %d", errs, tt.wantErr)
			}
			if tt.wantErr == 0 && !reflect.DeepEqual(got, tt.want) {
				t.Errorf("contract = %+v, want %+v", got, tt.want)
			}
		})
	}
}
