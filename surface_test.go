package silica_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported declarations under internal/ that
// no non-test file uses, each with the reason it stays. Keys are
// "pkg.Name" for funcs, types, vars and consts, "pkg.Type.Method" for
// methods. An entry whose name gains a production use must leave.
var surfaceAllowlist = map[string]string{
	// Drill seams: the kill, crash and rebuild drills drive the router
	// through them; an operator reaches the same states by killing a
	// process, not by a call.
	"cluster.Cluster.CrashPersist":   "drill seam: freezes the router log, the in-process kill -9",
	"cluster.Cluster.PersistCrashed": "drill seam: reports whether a kill point froze the router log",
	"cluster.Cluster.Detach":         "drill seam: the router dies while its members keep serving",
	"cluster.Cluster.KillLibrary":    "drill seam: a whole-library loss",
	"cluster.Cluster.RebuildLibrary": "drill seam: replaces a killed member and restores redundancy",

	// Paper models the tests check: the §2, §4, §5 and §6 quantities and
	// rules a figure or a claim rests on, stated once in the package
	// that owns them.
	"controller.Imbalance":                          "paper model: the §4.1 work-stealing trigger signal",
	"controller.ReservationTable.Reservations":      "paper model: live rail-segment reservations (§4.1)",
	"controller.Scheduler.GroupPlatters":            "paper model: distinct platters queued per group (§4.1)",
	"controller.Scheduler.Peek":                     "paper model: a platter's queued requests, unconsumed (§4.1)",
	"experiments.SLOSeconds":                        "paper model: the 15-hour read SLO in seconds (§7)",
	"geometry.DriveZone":                            "paper model: the blast zone a failed drive obstructs (§6)",
	"geometry.Layout.NumZones":                      "paper model: the number of blast zones (§6)",
	"geometry.Layout.SlotIndex":                     "paper model: dense storage-slot numbering (§4)",
	"geometry.Layout.ZoneOfPos":                     "paper model: the blast zone a failed shuttle obstructs (§6)",
	"layout.FormSets":                               "paper model: platter-set formation by content locality (§6)",
	"layout.SectorTracks":                           "paper model: the track span of a sector extent (§6)",
	"ldpc.Code.Rate":                                "paper model: the sector code's rate (§5)",
	"ldpc.SectorCodec.StorageOverhead":              "paper model: coded bits over payload bits (§5)",
	"media.Geometry.SerpentinePos":                  "paper model: the serpentine sector order (§6)",
	"media.Geometry.SectorAtSerpentine":             "paper model: the inverse of the serpentine order (§6)",
	"media.Platter.CanEnterWriteDrive":              "paper model: the air gap, only blank platters are written (§3)",
	"metadata.RebuildFromHeaders":                   "paper model: rebuilding metadata from platter headers (§6)",
	"metadata.Store.PlatterHeader":                  "paper model: a platter's self-descriptive header (§6)",
	"nc.Hierarchy.PlanRecovery":                     "paper model: the reads a cross-platter recovery needs (§5)",
	"service.Service.RecyclePlatter":                "paper model: melting a platter with no live data (§3)",
	"staging.RequiredBuffer":                        "paper model: the staging buffer smoothed ingress needs (§2)",
	"staging.SmoothedDrainRate":                     "paper model: the 30-day smoothed drain rate (§2)",
	"voxel.Modulation.MinDistance":                  "paper model: the constellation's minimum distance (§3.2)",
	"voxel.SectorPipeline.MeasureSectorFailureRate": "paper model: the §6 sector failure calibration",

	// Test oracles: known-good forms the production paths are checked
	// against, or fixtures every codec test builds from.
	"gf256.Mul":           "test oracle: scalar multiply the table-driven vector kernels are checked against",
	"gf256.Div":           "test oracle: field division, the inverse Mul is checked with",
	"gf256.MulMat":        "test oracle: matrix product that checks inversion and the Cauchy MDS property",
	"gf256.Matrix.MulVec": "test oracle: allocating form of MulVecInto",
	"ldpc.MustNewCode":    "test fixture: a code from compiled-in parameters (bench_test.go)",
	"ldpc.Code.DecodeBP":  "test oracle: whole-codeword BP the sector decoder's tiers are checked against",
	"ldpc.Code.Extract":   "test oracle: allocating form of ExtractInto",
	"ldpc.Code.FlipTrial": "test oracle: re-measures the Gallager-B gate at the channel's operating point",
	"nc.MustNewGroup":     "test fixture: a group from compiled-in parameters",
	"voxel.CleanChannel":  "test fixture: a noiseless channel",
	"voxel.Demodulate":    "test oracle: the hard-decision inverse of ModulateInto",
	"voxel.HardSymbols":   "test oracle: max-posterior symbols the soft demapper is checked with",
	"sim.Simulator.Fired": "test oracle: events executed, the kernel's progress count",
	"workload.KiB":        "unit constant of the KiB/MiB/GiB group",
}

// surfaceDecl is one exported declaration in a non-test file.
type surfaceDecl struct {
	key  string // pkg.Name or pkg.Type.Method
	name string // the identifier a caller writes
	pos  string
}

// TestExportedSurfaceHasProductionCallers holds internal/ to one entry
// per operation: every exported func, method, type, var and const
// declared in a non-test file must be named by some non-test file of the
// tree (cmd/, examples/ and the benchmark module included), unless the
// allowlist says why it stays. A name is counted as used when it occurs
// as an identifier anywhere but in its own declaration, so a method
// shares its name's fate with every other declaration of that name.
func TestExportedSurfaceHasProductionCallers(t *testing.T) {
	fset := token.NewFileSet()
	var decls []surfaceDecl
	uses := map[string]int{}
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
		declIdents := map[*ast.Ident]bool{}
		decls = append(decls, exportedDecls(fset, f, path, declIdents)...)
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}

	declared := map[string]bool{}
	var unused []string
	for _, d := range decls {
		declared[d.key] = true
		_, allowed := surfaceAllowlist[d.key]
		switch {
		case uses[d.name] == 0 && !allowed:
			unused = append(unused, d.key+" ("+d.pos+")")
		case uses[d.name] > 0 && allowed:
			t.Errorf("%s is allowlisted as test-only but %s is named by a non-test file: drop the entry", d.key, d.name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported %s has no caller outside tests: delete it, or allowlist it with a reason", u)
	}
	for key := range surfaceAllowlist {
		if !declared[key] {
			t.Errorf("allowlist entry %s names no exported declaration under internal/", key)
		}
	}
}

// exportedDecls lists the exported top-level declarations of one file
// under internal/ and marks their declaring identifiers in idents.
// Files elsewhere contribute no declarations.
func exportedDecls(fset *token.FileSet, f *ast.File, path string, idents map[*ast.Ident]bool) []surfaceDecl {
	if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
		return nil
	}
	pkg := f.Name.Name
	var out []surfaceDecl
	add := func(id *ast.Ident, key string) {
		idents[id] = true
		if id.IsExported() {
			out = append(out, surfaceDecl{key: key, name: id.Name, pos: fset.Position(id.Pos()).String()})
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, pkg+"."+d.Name.Name)
				continue
			}
			recv := receiverName(d.Recv.List[0].Type)
			if ast.IsExported(recv) {
				add(d.Name, pkg+"."+recv+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, pkg+"."+s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n, pkg+"."+n.Name)
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
