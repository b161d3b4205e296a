package gompresso_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
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

// The device simulator sits behind one seam: the host codec, its container
// format, the foreign decoder and the sidecar codec are built without it; in
// this package only codec.go imports it, for WithEngine(EngineDevice); no file
// of the CLI does; and otherwise only internal/kernels, the paper's figures
// (internal/figures, cmd/figures) and the examples, which drive the simulator's
// strategies and PCIe accounting directly, import it.
func TestSimulatorImportSeam(t *testing.T) {
	const mod = "gompresso"
	sim := map[string]bool{mod + "/internal/gpu": true, mod + "/internal/kernels": true}
	nonTestImports := func(dir string) []string {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			if _, noGo := err.(*build.NoGoError); noGo {
				return nil
			}
			t.Fatal(err)
		}
		return pkg.Imports
	}
	for _, root := range []string{"internal/core", "internal/format", "internal/deflate", "internal/gzidx"} {
		seen := map[string]bool{}
		var walk func(dir string)
		walk = func(dir string) {
			for _, imp := range nonTestImports(dir) {
				rel, local := strings.CutPrefix(imp, mod+"/")
				if sim[imp] {
					t.Errorf("%s reaches %s through %s", root, imp, dir)
				}
				if local && !seen[rel] {
					seen[rel] = true
					walk(rel)
				}
			}
		}
		walk(root)
	}

	// Per file: the root's non-test files but codec.go, and every file of the
	// CLI, tests included.
	files, err := filepath.Glob("cmd/gompresso/*.go")
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range root {
		if name != "codec.go" && !strings.HasSuffix(name, "_test.go") {
			files = append(files, name)
		}
	}
	for _, name := range files {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range f.Imports {
			if imp := strings.Trim(spec.Path.Value, `"`); sim[imp] {
				t.Errorf("%s imports %s: the simulator is reached through codec.go's engine switch", name, imp)
			}
		}
	}

	err = filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		switch dir {
		case ".", "internal/kernels", "internal/figures", "cmd/figures":
			return nil // checked per file above; the seam's far side; the paper's figures
		case "examples":
			return filepath.SkipDir // programs that drive the simulator's knobs themselves
		case "benchmark", ".bench_build", ".git":
			return filepath.SkipDir // a module of its own, pinned to this package's surface
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		for _, imp := range nonTestImports(dir) {
			if sim[imp] {
				t.Errorf("%s imports %s: the simulator is reached through package gompresso", dir, imp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
