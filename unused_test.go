package scidp_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// keptForTests lists what under internal/ no non-test file references and
// stays anyway, by full name; an entry ending in "." keeps every method of
// the type. Each stays for a test in the package named: a writer fixture
// that builds the files its readers open, an oracle or baseline it
// compares against, or a read-back accessor a test in another package has
// no other way to. Anything else the guard finds is deleted, or moved into
// the _test.go that wants it; an entry the guard finds nothing for fails.
var keptForTests = []string{
	"scidp/internal/grads.Encode",                   // scifmt.TestByteIdentityPins, core.TestPFSReaderGradsCrossFormat
	"scidp/internal/grads.Format",                   // scifmt.TestByteIdentityPins, core.TestPFSReaderGradsCrossFormat
	"scidp/internal/hdf5lite.NewWriter",             // core.TestMapperHierarchicalFormatMirrorsGroups
	"(*scidp/internal/hdf5lite.Writer).",            // core.TestMapperHierarchicalFormatMirrorsGroups
	"(*scidp/internal/hdf5lite.Group).",             // core.TestMapperHierarchicalFormatMirrorsGroups
	"(*scidp/internal/netcdf.Writer).",              // scifmt.TestByteIdentityPins
	"scidp/internal/netcdf.Float64Attr",             // scifmt.TestByteIdentityPins
	"(*scidp/internal/rframe.Frame).MustAddInt",     // rsql.TestMinMaxFold
	"(*scidp/internal/rframe.Frame).MustAddString",  // rsql.TestStringComparison
	"(*scidp/internal/sim.Kernel).SetFairShareMode", // sim.TestIncrementalMatchesFullRecomputeOracle, bench.TestTraceCoversSpanTree
	"(*scidp/internal/rframe.Frame).Filter",         // rsql.TestDifferential: the legacy executor's WHERE
	"(*scidp/internal/mpiio.Comm).IndependentRead",  // mpiio.TestCollectiveBeatsIndependentOnFragmentedRequests
	"(*scidp/internal/hdfs.FS).Exists",              // core.TestMapperMirrorsNetCDF
	"(*scidp/internal/pfs.FS).Get",                  // solutions.TestStoredBytesAreNeverWritten
	"(*scidp/internal/pfs.FS).Paths",                // solutions.TestStoredBytesAreNeverWritten
	"(*scidp/internal/pfs.FS).OSTCount",             // core.TestPFSReaderReadsAroundOSTOutage
	"(*scidp/internal/rframe.Column).StringAt",      // rsql.TestDifferential
	"(*scidp/internal/rsql.ChunkPartial).Rows",      // aquery.BenchmarkScanChunk
	"(*scidp/internal/scifmt.Info).Var",             // grads.TestExplore
	"(scidp/internal/ioengine.ChunkStats).AllFill",  // hdf5lite.TestChunkStatsProperty
}

// moduleImporter type-checks this module's packages from source into one
// universe (so an object used in one package is the object another
// declares) and leaves everything else to the stdlib source importer.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path != "scidp" && !strings.HasPrefix(path, "scidp/") {
		return m.std.Import(path)
	}
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	dir := "." + strings.TrimPrefix(path, "scidp")
	parsed, err := parser.ParseDir(m.fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, p := range parsed {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path], m.infos[path] = pkg, info
	return pkg, nil
}

// TestNoFunctionOnlyTestsReach fails when a package-level function or a
// method declared under internal/ is referenced by no non-test file of
// this module or of benchmark/ and is not listed in keptForTests, and
// when a keptForTests entry matches no declared function or only ones a
// non-test file references. A method also counts as referenced when an
// interface that its type satisfies, anywhere in those files or in the
// packages they import, names it: that is how Splits, String or Less are
// called.
func TestNoFunctionOnlyTestsReach(t *testing.T) {
	fset := token.NewFileSet()
	m := &moduleImporter{fset: fset, std: importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if strings.HasPrefix(d.Name(), ".") && path != "." || d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if srcs, _ := filepath.Glob(filepath.Join(path, "*.go")); !slices.ContainsFunc(srcs, func(s string) bool {
			return !strings.HasSuffix(s, "_test.go")
		}) {
			return nil
		}
		_, err = m.Import(filepath.ToSlash(filepath.Join("scidp", path)))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	for _, info := range m.infos {
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for _, tv := range info.Types {
			addIface(tv.Type)
		}
	}
	imported := map[*types.Package]bool{}
	for _, pkg := range m.pkgs {
		for _, imp := range append([]*types.Package{pkg}, pkg.Imports()...) {
			if imported[imp] {
				continue
			}
			imported[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
	}
	viaInterface := func(recv types.Type, name string) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == name && types.Implements(types.NewPointer(recv), it) {
					return true
				}
			}
		}
		return false
	}

	kept := func(k, name string) bool { return k == name || strings.HasSuffix(k, ".") && strings.HasPrefix(name, k) }
	testOnly := map[string]bool{} // every function declared under internal/
	var dead []string
	for path, info := range m.infos {
		if !strings.HasPrefix(path, "scidp/internal/") {
			continue
		}
		for _, obj := range info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Name() == "init" {
				continue
			}
			reached := used[fn]
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && !reached {
				rt := recv.Type()
				if p, ok := rt.(*types.Pointer); ok {
					rt = p.Elem()
				}
				_, isIface := rt.Underlying().(*types.Interface)
				reached = isIface || viaInterface(rt, fn.Name())
			}
			name := fn.FullName()
			testOnly[name] = !reached
			if !reached && !slices.ContainsFunc(keptForTests, func(k string) bool { return kept(k, name) }) {
				dead = append(dead, name+"  "+fset.Position(fn.Pos()).String())
			}
		}
	}
	for _, k := range keptForTests {
		matched, needed := false, false
		for name, only := range testOnly {
			if kept(k, name) {
				matched, needed = true, needed || only
			}
		}
		switch {
		case !matched:
			t.Errorf("keptForTests entry %s matches no declared function", k)
		case !needed:
			t.Errorf("keptForTests entry %s names only functions a non-test file references", k)
		}
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("referenced by no non-test file: %s", d)
	}
}
