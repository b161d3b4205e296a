package gompresso_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// publicSurface lists what the package's non-test files export: top-level
// functions, types, constants and variables by name, methods of exported
// types as Type.Method, and fields of exported struct types as Type.Field.
func publicSurface(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	add := func(prefix string, idents ...*ast.Ident) {
		for _, id := range idents {
			if id.IsExported() {
				names = append(names, prefix+id.Name)
			}
		}
	}
	for _, f := range pkgs["gompresso"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add("", d.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					add(id.Name+".", d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						add("", s.Names...)
					case *ast.TypeSpec:
						add("", s.Name)
						st, ok := s.Type.(*ast.StructType)
						if !ok || !s.Name.IsExported() {
							continue
						}
						for _, field := range st.Fields.List {
							if len(field.Names) > 0 {
								add(s.Name.Name+".", field.Names...)
								continue
							}
							switch e := field.Type.(type) { // embedded: named after its type
							case *ast.Ident:
								add(s.Name.Name+".", e)
							case *ast.SelectorExpr:
								add(s.Name.Name+".", e.Sel)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(names)
	return names
}

// The exported identifiers are pinned by name, so a new option, entry point
// or field is a reviewed edit of testdata/public_surface.txt, never a side
// effect: Codec and its With* options are the one way in.
func TestPublicSurfacePinned(t *testing.T) {
	golden, err := os.ReadFile("testdata/public_surface.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(golden))
	got := publicSurface(t)
	for _, name := range got {
		if !slices.Contains(want, name) {
			t.Errorf("exported but not in testdata/public_surface.txt: %s", name)
		}
	}
	for _, name := range want {
		if !slices.Contains(got, name) {
			t.Errorf("in testdata/public_surface.txt but no longer exported: %s", name)
		}
	}
	if !slices.IsSorted(want) {
		t.Error("testdata/public_surface.txt is not sorted")
	}
}
