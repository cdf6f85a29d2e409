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
// the type. Anything else the guard finds is deleted, or moved into the
// _test.go that wants it.
var keptForTests = []string{
	// Fixtures: the format writers build the files the readers' tests
	// open, and the typed accessors are how those tests read them back.
	"scidp/internal/grads.Encode", "scidp/internal/grads.Format",
	"scidp/internal/hdf5lite.NewWriter", "(*scidp/internal/hdf5lite.Writer).", "(*scidp/internal/hdf5lite.Group).",
	"(*scidp/internal/hdf5lite.File).ReadAll", "scidp/internal/hdf5lite.Float32s",
	"(*scidp/internal/netcdf.Writer).", "(*scidp/internal/netcdf.Array).Float64At", "(*scidp/internal/netcdf.Array).Sub",
	"(*scidp/internal/netcdf.Var).Attr", "scidp/internal/netcdf.Float64Attr",
	"(*scidp/internal/rframe.Frame).MustAddInt", "(*scidp/internal/rframe.Frame).MustAddString",
	// Oracle: FairShareFull, the brute-force schedule the incremental one is held to.
	"(*scidp/internal/sim.Kernel).SetFairShareMode",
	// File-system API completeness.
	"(*scidp/internal/hdfs.FS).Remove", "(*scidp/internal/hdfs.FS).Exists", "(*scidp/internal/hdfs.FS).DataNodes",
	"(*scidp/internal/pfs.Client).Append", "(*scidp/internal/pfs.Client).Remove", "(*scidp/internal/pfs.Client).FS",
	"(*scidp/internal/pfs.FS).Get", "(*scidp/internal/pfs.FS).Paths", "(*scidp/internal/pfs.FS).OSTCount",
	// The R-, Spark- and MPI-IO-like surfaces the paper's layers offer a
	// user, wider than what the five pipelines call.
	"(*scidp/internal/rframe.Frame).Filter", "(*scidp/internal/rframe.Frame).Select", "(*scidp/internal/rframe.Frame).TopFraction",
	"(*scidp/internal/rframe.Column).StringAt",
	"(*scidp/internal/sparklite.Context).Parallelize", "(*scidp/internal/sparklite.RDD).Count", "(*scidp/internal/sparklite.RDD).Filter",
	"(*scidp/internal/sparklite.RDD).FlatMap", "(*scidp/internal/sparklite.ArrayQuery).Run",
	"scidp/internal/rmr.ReadFrame", "scidp/internal/rmr.WriteFrame", "scidp/internal/rmr.WriteBytes",
	"(*scidp/internal/mpiio.Comm).IndependentRead", "(*scidp/internal/mpiio.Result).Elapsed", "scidp/internal/mpiio.MergeRanges",
	"(*scidp/internal/mapreduce.TaskContext).Counter", "(*scidp/internal/cluster.Interlink).Path",
	"scidp/internal/aquery.NewHDF5", "scidp/internal/aquery.WithConst",
	// What a test asks a finished run.
	"(*scidp/internal/chaos.Injector).Plan", "(*scidp/internal/tenant.Service).Quiesced", "scidp/internal/bench.ClearCache",
	"(*scidp/internal/obs.Registry).SetMaxSpans", "(*scidp/internal/obs.Span).ID", "(*scidp/internal/obs.SpanInfo).Seconds",
	"(*scidp/internal/sim.ComputePool).Workers", "(*scidp/internal/sim.Flow).ID", "(*scidp/internal/sim.Tracer).Len",
	"(*scidp/internal/rsql.ArrayPlan).Bounds", "(*scidp/internal/rsql.ChunkPartial).Rows",
	"(*scidp/internal/scifmt.Info).Var", "(*scidp/internal/scifmt.Registry).Formats",
	"(scidp/internal/ioengine.ChunkStats).AllFill", "(scidp/internal/workloads.MiniResult).Throughput",
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
// this module or of benchmark/ and is not listed in keptForTests. A
// method also counts as referenced when an interface that its type
// satisfies, anywhere in those files or in the packages they import,
// names it: that is how Splits, String or Less are called.
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

	var dead []string
	for path, info := range m.infos {
		if !strings.HasPrefix(path, "scidp/internal/") {
			continue
		}
		for _, obj := range info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || used[fn] || fn.Name() == "init" {
				continue
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				rt := recv.Type()
				if p, ok := rt.(*types.Pointer); ok {
					rt = p.Elem()
				}
				if _, isIface := rt.Underlying().(*types.Interface); isIface || viaInterface(rt, fn.Name()) {
					continue
				}
			}
			name := fn.FullName()
			if !slices.ContainsFunc(keptForTests, func(k string) bool {
				return k == name || strings.HasSuffix(k, ".") && strings.HasPrefix(name, k)
			}) {
				dead = append(dead, name+"  "+fset.Position(fn.Pos()).String())
			}
		}
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("referenced by no non-test file: %s", d)
	}
}
