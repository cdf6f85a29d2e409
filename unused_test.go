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
	"sync"
	"testing"
	"unicode"
)

// keptForTests lists what in a non-main package only tests reach and stays
// anyway, by full name: a function or method, a type, or a configuration
// field ("pkg.Type.Field"); an entry ending in "." keeps every method of
// the type. Each stays for a test in the package named: a writer fixture
// that builds the files its readers open, an oracle or baseline it
// compares against, or a knob a test turns to reach a state the defaults
// never do. Anything else the guard finds is deleted, or moved into the
// _test.go that wants it; an entry the guard finds nothing for fails.
var keptForTests = []string{
	"scidp/internal/hdf5lite.NewWriter",                // core.TestMapperHierarchicalFormatMirrorsGroups
	"(*scidp/internal/hdf5lite.Writer).",               // core.TestMapperHierarchicalFormatMirrorsGroups
	"(*scidp/internal/hdf5lite.Group).",                // core.TestMapperHierarchicalFormatMirrorsGroups
	"(*scidp/internal/netcdf.Writer).",                 // scifmt.TestByteIdentityPins
	"scidp/internal/netcdf.Float64Attr",                // scifmt.TestByteIdentityPins
	"(*scidp/internal/rframe.Frame).MustAddInt",        // rsql.TestMinMaxFold
	"(*scidp/internal/rframe.Frame).MustAddString",     // rsql.TestStringComparison
	"(*scidp/internal/sim.Kernel).SetFairShareMode",    // sim.TestIncrementalMatchesFullRecomputeOracle, bench.TestTraceCoversSpanTree
	"(*scidp/internal/rframe.Frame).Filter",            // rsql.TestDifferential: the legacy executor's WHERE
	"(*scidp/internal/mpiio.Comm).IndependentRead",     // mpiio.TestCollectiveBeatsIndependentOnFragmentedRequests
	"(*scidp/internal/pfs.FS).Get",                     // solutions.TestStoredBytesAreNeverWritten
	"(*scidp/internal/pfs.FS).Paths",                   // solutions.TestStoredBytesAreNeverWritten
	"scidp/internal/solutions.WorkflowConfig.HPCNodes", // solutions.TestInSituHidesAnalysisBehindSimulation and the other workflow tests: 4 nodes
	"scidp/internal/tenant.Config.ScanPerMB",           // tenant.TestPreemptionOnArrival, TestPreemptionDeterminism: jobs long enough to preempt
	"scidp/internal/tenant/loadgen.Class.Period",       // loadgen.TestDiurnalThinsOffPeak
	"scidp/internal/ioengine.Stats",                    // netcdf.TestHeaderOnlyOpenIsCheap, TestGetVaraReadsOnlyNeededChunks, hdf5lite.TestHeaderOnlyOpen
}

// moduleImporter type-checks this module's packages from source into one
// universe (so an object used in one package is the object another
// declares) and leaves everything else to the stdlib source importer.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
	files map[string][]*ast.File
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
	m.pkgs[path], m.infos[path], m.files[path] = pkg, info, files
	return pkg, nil
}

// TestNoFunctionOnlyTestsReach fails on what in any non-main package of
// the module (the root one included) only tests reach, unless
// keptForTests lists it:
//   - a package-level function or method that no non-test file of this
//     module or of benchmark/ references. A method also counts as
//     referenced when an interface that its type satisfies, anywhere in
//     those files or in the packages they import, names it: that is how
//     Splits, String or Less are called;
//   - a package-level type that no non-test file names;
//   - a knob nobody turns: an exported field of a configuration struct
//     (one a non-test file outside its package builds with a composite
//     literal) that no non-test file sets. Setting is a composite-literal
//     key, an assignment, ++/-- or taking its address; an assignment of a
//     constant inside the declaring package is the package's own default,
//     not a caller's choice. Such a field always holds that default.
//
// It also fails when a keptForTests entry matches nothing declared, or
// names only what a non-test file reaches.
func TestNoFunctionOnlyTestsReach(t *testing.T) {
	m := loadModule(t)
	fset := m.fset

	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	// A method's receiver names its own type; that is no use of the type.
	receivers := map[*ast.Ident]bool{}
	for _, files := range m.files {
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			}
		}
	}
	for _, info := range m.infos {
		for id, obj := range info.Uses {
			if receivers[id] {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = true
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
	set, configured := fieldsSet(m)

	kept := func(k, name string) bool { return k == name || strings.HasSuffix(k, ".") && strings.HasPrefix(name, k) }
	testOnly := map[string]bool{} // everything the three rules judge, by full name
	var dead []string
	judge := func(name string, reached bool, why string, pos token.Pos) {
		testOnly[name] = !reached
		if !reached && !slices.ContainsFunc(keptForTests, func(k string) bool { return kept(k, name) }) {
			dead = append(dead, why+": "+name+"  "+fset.Position(pos).String())
		}
	}
	for path, info := range m.infos {
		if m.pkgs[path].Name() == "main" {
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
			judge(fn.FullName(), reached, "referenced by no non-test file", fn.Pos())
		}
		scope := m.pkgs[path].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			judge(path+"."+name, used[tn], "referenced by no non-test file", tn.Pos())
			if st, ok := tn.Type().Underlying().(*types.Struct); ok && configured[tn] {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() {
						judge(path+"."+name+"."+f.Name(), set[f], "set by no non-test file", f.Pos())
					}
				}
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
			t.Errorf("keptForTests entry %s matches nothing declared", k)
		case !needed:
			t.Errorf("keptForTests entry %s names only what a non-test file reaches", k)
		}
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("%s", d)
	}
}

// module is what loadModule type-checked, once for both tests.
var module struct {
	once sync.Once
	m    *moduleImporter
	err  error
}

// loadModule type-checks every package of the module and of benchmark/
// from source, once a test binary.
func loadModule(t *testing.T) *moduleImporter {
	module.once.Do(func() { module.m, module.err = typeCheckModule() })
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.m
}

func typeCheckModule() (*moduleImporter, error) {
	fset := token.NewFileSet()
	m := &moduleImporter{fset: fset, std: importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}, files: map[string][]*ast.File{}}
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
	return m, err
}

// fieldsSet reports which struct fields some non-test file sets, and which
// struct types a non-test file outside their package builds.
func fieldsSet(m *moduleImporter) (set map[types.Object]bool, configured map[*types.TypeName]bool) {
	set, configured = map[types.Object]bool{}, map[*types.TypeName]bool{}
	for path, info := range m.infos {
		for e, tv := range info.Types {
			lit, ok := e.(*ast.CompositeLit)
			if !ok {
				continue
			}
			typ := tv.Type
			if p, ok := typ.(*types.Pointer); ok {
				typ = p.Elem()
			}
			named, ok := typ.(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			if pkg := named.Obj().Pkg(); pkg != nil && pkg.Path() != path {
				configured[named.Obj()] = true
			}
			for i, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					set[info.Uses[kv.Key.(*ast.Ident)]] = true
				} else {
					set[st.Field(i)] = true
				}
			}
		}
		// mark sets every field along a selector chain: a.b.c = v sets c
		// and, through it, b.
		mark := func(x ast.Expr, constant bool) {
			for sel, ok := x.(*ast.SelectorExpr); ok; sel, ok = sel.X.(*ast.SelectorExpr) {
				if f, ok := info.Uses[sel.Sel].(*types.Var); ok && f.IsField() && !(constant && f.Pkg().Path() == path) {
					set[f] = true
				}
			}
		}
		for _, f := range m.files[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, l := range n.Lhs {
						mark(l, len(n.Rhs) == len(n.Lhs) && info.Types[n.Rhs[i]].Value != nil)
					}
				case *ast.IncDecStmt:
					mark(n.X, false)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X, false)
					}
				}
				return true
			})
		}
	}
	return set, configured
}

// TestKnobCount logs (`make loc` prints it) how many settings the
// module's non-main packages outside benchmark/ offer a caller: every
// exported field of a configuration struct (the structs fieldsSet finds
// built outside their package) and every exported Set*/Disable* method.
// It judges nothing.
func TestKnobCount(t *testing.T) {
	m := loadModule(t)
	_, configured := fieldsSet(m)
	knobs := 0
	for path, pkg := range m.pkgs {
		if pkg.Name() == "main" || strings.HasPrefix(path, "scidp/benchmark") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok && configured[tn] {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() {
						knobs++
					}
				}
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					name := named.Method(i).Name()
					for _, prefix := range []string{"Set", "Disable"} {
						if rest, ok := strings.CutPrefix(name, prefix); ok && rest != "" && unicode.IsUpper(rune(rest[0])) {
							knobs++
						}
					}
				}
			}
		}
	}
	t.Logf("knobs %d", knobs)
}
