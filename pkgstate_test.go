package accentmig

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestTrialsShareNoPackageState parses every non-test file under
// internal/ and fails on a package-level variable that is assigned,
// incremented or index-assigned outside its declaration, or whose type
// comes from sync/atomic: state two trials in one process would share.
// Each exception is named with its reason. Mutation through methods
// (workload's template cache, the entry codecs, Default.SetDisk) is
// beyond its reach.
func TestTrialsShareNoPackageState(t *testing.T) {
	except := map[string]string{
		"xrand.baseSeed":      "migsim's -seed and bench/workloads.go set it; it moves into Config once a benchmark change moves the benchmark off it (ROADMAP item 13)",
		"experiments.Default": "migsim's -parallel and bench/workloads.go set it; Params carries the engine once a benchmark change moves the benchmark off it (ROADMAP item 13)",
		"wire.bodyCodecs":     "filled by init registrations before main runs",
		"workload.fillRows":   "built once behind fillRowsOnce",
	}
	found := map[string]string{} // "pkg.var" -> what writes it
	pkgs := map[string][]*ast.File{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		pkgs[filepath.Dir(p)] = append(pkgs[filepath.Dir(p)], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, files := range pkgs {
		vars := map[string]bool{} // package-level variables
		decls := map[*ast.ValueSpec]bool{}
		for _, f := range files {
			atomic := importName(f, "sync/atomic")
			for _, d := range f.Decls {
				g, ok := d.(*ast.GenDecl)
				if !ok || g.Tok != token.VAR {
					continue
				}
				for _, spec := range g.Specs {
					vs := spec.(*ast.ValueSpec)
					decls[vs] = true
					for _, n := range vs.Names {
						vars[n.Name] = true
						if atomic != "" && mentions(vs, atomic) {
							found[f.Name.Name+"."+n.Name] = "its type comes from sync/atomic"
						}
					}
				}
			}
		}
		for _, f := range files {
			// written reports the package-level variable at the root of
			// an assigned expression, if it is one.
			written := func(x ast.Expr) (string, bool) {
				for {
					switch e := x.(type) {
					case *ast.SelectorExpr:
						x = e.X
					case *ast.IndexExpr:
						x = e.X
					case *ast.StarExpr:
						x = e.X
					case *ast.ParenExpr:
						x = e.X
					case *ast.Ident:
						if e.Name == "_" {
							return "", false
						}
						if e.Obj == nil { // declared in another file of the package, or not at all
							return e.Name, vars[e.Name]
						}
						vs, ok := e.Obj.Decl.(*ast.ValueSpec)
						return e.Name, ok && decls[vs]
					default:
						return "", false
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch s := n.(type) {
				case *ast.AssignStmt:
					if s.Tok != token.DEFINE {
						lhs = s.Lhs
					}
				case *ast.IncDecStmt:
					lhs = []ast.Expr{s.X}
				}
				for _, x := range lhs {
					if name, ok := written(x); ok {
						found[f.Name.Name+"."+name] = "written at " + fset.Position(x.Pos()).String()
					}
				}
				return true
			})
		}
	}
	for v, why := range found {
		if _, ok := except[v]; !ok {
			t.Errorf("package-level %s is shared by every trial in the process: %s", v, why)
		}
	}
	for v := range except {
		if _, ok := found[v]; !ok {
			t.Errorf("exception %s no longer applies: delete it", v)
		}
	}
}

// importName returns the name file f uses for the package at path, or
// "" if f does not import it.
func importName(f *ast.File, importPath string) string {
	for _, im := range f.Imports {
		if p, _ := strconv.Unquote(im.Path.Value); p == importPath {
			if im.Name != nil {
				return im.Name.Name
			}
			return path.Base(p)
		}
	}
	return ""
}

// mentions reports whether the declaration names a member of the
// package imported as pkg, in its type or its values.
func mentions(vs *ast.ValueSpec, pkg string) bool {
	hit := false
	ast.Inspect(vs, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
				hit = true
			}
		}
		return !hit
	})
	return hit
}
