package silica_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported declarations under internal/ that
// no non-test file uses, and the exported *Config fields that no
// non-test file sets, each with the reason it stays. Keys are
// "pkg.Name" for funcs, types, vars and consts, "pkg.Type.Method" for
// methods, "pkg.Type.Field" for fields. An entry whose name gains a
// production use must leave.
var surfaceAllowlist = map[string]string{
	// Drill seams: the kill, crash and rebuild drills drive the router
	// through them; an operator reaches the same states by killing a
	// process, not by a call.
	"cluster.Cluster.CrashPersist":   "drill seam: freezes the router log, the in-process kill -9",
	"cluster.Cluster.PersistCrashed": "drill seam: reports whether a kill point froze the router log",
	"cluster.Cluster.Detach":         "drill seam: the router dies while its members keep serving",
	"cluster.Cluster.KillLibrary":    "drill seam: a whole-library loss",
	"cluster.Cluster.RebuildLibrary": "drill seam: replaces a killed member and restores redundancy",

	// Pending ROADMAP 19(b): the header track that writes them to glass
	// and the platter scan that reads them back.
	"metadata.RebuildFromHeaders":  "pending ROADMAP 19(b): rebuilding metadata from platter headers (§6)",
	"metadata.Store.PlatterHeader": "pending ROADMAP 19(b): a platter's self-descriptive header (§6)",

	// Test oracles: known-good forms the production paths are checked
	// against, or fixtures every codec test builds from.
	"gf256.Mul":           "test oracle: scalar multiply the table-driven vector kernels are checked against",
	"gf256.Div":           "test oracle: field division, the inverse Mul is checked with",
	"gf256.MulMat":        "test oracle: matrix product that checks inversion and the Cauchy MDS property",
	"gf256.Matrix.MulVec": "test oracle: allocating form of MulVecInto",
	"nc.MustNewGroup":     "test fixture: a group from compiled-in parameters",
	"voxel.CleanChannel":  "test fixture: a noiseless channel",
	"voxel.HardSymbols":   "test oracle: max-posterior symbols the soft demapper is checked with",
	"sim.Simulator.Fired": "test oracle: events executed, the kernel's progress count",
	"workload.KiB":        "unit constant of the KiB/MiB/GiB group",
}

// surfaceDecl is one exported declaration in a non-test file.
type surfaceDecl struct {
	key   string // pkg.Name, pkg.Type.Method or pkg.Type.Field
	name  string // the identifier a caller writes
	ref   string // import path + "." + name for a package-level name; "" for a method or field
	field bool   // a field of a *Config struct: used means set
	pos   string
}

// surfaceFile is one parsed non-test file and the import path of its
// directory.
type surfaceFile struct {
	path, pkgPath string
	f             *ast.File
}

// TestExportedSurfaceHasProductionCallers holds internal/ to one entry
// per operation: every exported func, method, type, var and const
// declared in a non-test file must be named by some non-test file of the
// tree (cmd/, examples/ and the benchmark module included), unless the
// allowlist says why it stays. A package-level func, type, var or const
// counts as used only where it is written pkg.Name, with pkg an import
// (alias included) of its own package, or bare inside its own package.
// A method keeps the name rule: it counts as used when any identifier of
// its spelling occurs outside its own declaration, so it shares its
// fate with every other declaration of that name.
//
// The field half holds every exported field of a struct type named
// *Config under internal/ to a production setter: a knob only tests
// turn is a mode production never runs. A field counts as set where a
// non-test file writes its spelling as a composite-literal key
// (Field: v), assigns it (x.Field = v, any assignment operator, or
// x.Field++), or takes its address (&x.Field, as a flag binding does).
// The match is by spelling, so it can only under-report.
func TestExportedSurfaceHasProductionCallers(t *testing.T) {
	const module = "silica"
	fset := token.NewFileSet()
	var files []surfaceFile
	pkgNames := map[string]string{} // import path -> package name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgPath := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkgPath += "/" + dir
		}
		pkgNames[pkgPath] = f.Name.Name
		files = append(files, surfaceFile{path: path, pkgPath: pkgPath, f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var decls []surfaceDecl
	names := map[string]int{} // identifier spelling -> uses, for methods
	refs := map[string]int{}  // import path + "." + name -> uses
	sets := map[string]int{}  // identifier spelling -> writes, for fields
	for _, sf := range files {
		imports := map[string]string{} // local name -> import path
		for _, imp := range sf.f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			local := pkgNames[path]
			if local == "" {
				local = path[strings.LastIndex(path, "/")+1:]
			}
			if imp.Name != nil {
				local = imp.Name.Name
			}
			if local == "." {
				t.Fatalf("%s: dot import of %s hides which package a name is from", sf.path, path)
			}
			imports[local] = path
		}
		skip := map[*ast.Ident]bool{} // declaring identifiers
		decls = append(decls, exportedDecls(fset, sf, skip)...)
		notBare := map[*ast.Ident]bool{} // selectors and field names
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				notBare[x.Sel] = true
				if id, ok := x.X.(*ast.Ident); ok {
					if path, ok := imports[id.Name]; ok {
						refs[path+"."+x.Sel.Name]++
					}
				}
			case *ast.Field:
				for _, id := range x.Names {
					notBare[id] = true
				}
			case *ast.CompositeLit:
				for _, e := range x.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							sets[id.Name]++
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						sets[sel.Sel.Name]++
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := x.X.(*ast.SelectorExpr); ok {
					sets[sel.Sel.Name]++
				}
			case *ast.UnaryExpr:
				if sel, ok := x.X.(*ast.SelectorExpr); ok && x.Op == token.AND {
					sets[sel.Sel.Name]++
				}
			case *ast.Ident:
				if skip[x] {
					break
				}
				names[x.Name]++
				if !notBare[x] {
					refs[sf.pkgPath+"."+x.Name]++
				}
			}
			return true
		})
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}

	declared := map[string]bool{}
	var unused, unset []string
	for _, d := range decls {
		declared[d.key] = true
		used := names[d.name] > 0
		switch {
		case d.field:
			used = sets[d.name] > 0
		case d.ref != "":
			used = refs[d.ref] > 0
		}
		_, allowed := surfaceAllowlist[d.key]
		switch {
		case !used && !allowed && d.field:
			unset = append(unset, d.key+" ("+d.pos+")")
		case !used && !allowed:
			unused = append(unused, d.key+" ("+d.pos+")")
		case used && allowed:
			t.Errorf("%s is allowlisted as test-only but a non-test file uses it: drop the entry", d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported %s has no caller outside tests: delete it, or allowlist it with a reason", u)
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("config field %s is set only by tests: delete it, or allowlist it with a reason", u)
	}
	for key := range surfaceAllowlist {
		if !declared[key] {
			t.Errorf("allowlist entry %s names no exported declaration or config field under internal/", key)
		}
	}
}

// exportedDecls lists the exported top-level declarations of one file
// under internal/, and the exported fields of its struct types named
// *Config, and marks the top-level declaring identifiers in idents.
// Files elsewhere contribute no declarations.
func exportedDecls(fset *token.FileSet, sf surfaceFile, idents map[*ast.Ident]bool) []surfaceDecl {
	if !strings.HasPrefix(filepath.ToSlash(sf.path), "internal/") {
		return nil
	}
	pkg := sf.f.Name.Name
	var out []surfaceDecl
	add := func(id *ast.Ident, key, ref string) {
		idents[id] = true
		if id.IsExported() {
			out = append(out, surfaceDecl{key: key, name: id.Name, ref: ref, pos: fset.Position(id.Pos()).String()})
		}
	}
	pkgLevel := func(id *ast.Ident) {
		add(id, pkg+"."+id.Name, sf.pkgPath+"."+id.Name)
	}
	for _, decl := range sf.f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				pkgLevel(d.Name)
				continue
			}
			recv := receiverName(d.Recv.List[0].Type)
			if ast.IsExported(recv) {
				add(d.Name, pkg+"."+recv+"."+d.Name.Name, "")
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					pkgLevel(s.Name)
					st, ok := s.Type.(*ast.StructType)
					if !ok || !strings.HasSuffix(s.Name.Name, "Config") {
						continue
					}
					for _, f := range st.Fields.List {
						for _, id := range f.Names {
							if id.IsExported() {
								out = append(out, surfaceDecl{key: pkg + "." + s.Name.Name + "." + id.Name,
									name: id.Name, field: true, pos: fset.Position(id.Pos()).String()})
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						pkgLevel(n)
					}
				}
			}
		}
	}
	return out
}

// receiverName strips pointers and type parameters off a method's
// receiver type.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
