package spgemm_test

import (
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
)

// testOnlyAllowlist names the declarations under internal/ that no non-test
// code reaches but that stay on purpose. A key is the declaring package's path
// below internal/ and the name ("spmat.Dense", "spmat.CSC.Validate" for a
// method); the value says which test, benchmark or fuzz target relies on it.
// An entry that no longer names an unreached declaration fails
// TestNoTestOnlyExports, so the list cannot go stale.
var testOnlyAllowlist = map[string]string{
	// Reference oracles: tests compare the engine against them.
	"localmm.SPASpGEMM":             "oracle: TestSPAMatchesReference, the dense-accumulator kernel",
	"apps.Serial":                   "oracle: TestSerialAdapterMatchesService runs an app on one process",
	"apps/matching.Result.Validate": "oracle: the matching tests check every result is a valid matching",
	"spmat.CSC.Validate":            "oracle: FuzzDeserializeMatrix and the kernel tests check CSC invariants",
	"spmat.DCSC.Validate":           "oracle: FuzzDeserializeMatrix and the DCSC tests check DCSC invariants",
	"spmat.Add":                     "oracle: the localmm merge tests sum their operands with it",
	// The trace↔meter identity: a rank's spans replay to its meter's steps.
	"mpi.Meter.Step":           "oracle: TestTraceMatchesMeter and TestTraceMatchesMeterDense read each rank's meter; the mpi metering tests",
	"mpi.Meter.Categories":     "oracle: TestTraceMatchesMeter and TestTraceMatchesMeterDense compare a rank's step set with its spans'",
	"obs.RankRecorder.Spans":   "oracle: TestTraceMatchesMeter and TestTraceMatchesMeterDense replay each rank's spans; the obs and mpi trace tests",
	"mpi.Summary.TotalSeconds": "oracle: TestSummarizeTakesMaxTimes, TestMultiplyConvenience and overlap's TestDistributedMatchesSerial check a run metered time",
	// Fixture builders.
	"spmat.Dense":         "fixture: the spmat, localmm and mcl tests build matrices from dense literals",
	"spmat.CSC.ToDense":   "fixture: the localmm kernel tests compare products as dense arrays",
	"spmat.CSC.DropZeros": "fixture: the localmm kernel and mask tests drop explicit zeros before comparing",
	"spmat.HCat":          "fixture: the core tests read a rank's pieces as one CSC; localmm regime fixtures",
	// The paper's Sec. IV-B batch-split ablation (root bench_test.go).
	"spmat.ColSplit":       "ablation: BenchmarkBatchSplitBlock and the merge-per-stage benchmarks",
	"spmat.ColSplitCyclic": "ablation: BenchmarkBatchSplitCyclic",
	"genmat.Permutation":   "ablation: the merge benchmarks and TestPermutationIsPermutation",
	// Pooled wire buffers for a copying transport, which the simulator does not
	// have yet: it delivers payloads by reference.
	"spmat.MatColSubsetSerialize": "transport: TestColSubsetViewWire; the encoder a copying transport ships",
	"mpi.Comm.GetBuf":             "transport: TestGetBufReuses; a copying transport's send buffers",
	"mpi.Comm.PutBuf":             "transport: TestGetBufReuses; a copying transport's send buffers",
	"mpi.Comm.PutRecv":            "transport: TestSteadyStateSendsDoNotAllocate; receive buffers back to the pool",
}

// stdInterfaceMethods are methods the standard library calls through an
// interface; a method by one of these names is reachable without a call in
// this repository.
var stdInterfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"Read": true, "Write": true, "WriteTo": true, "ReadFrom": true, "Close": true, "Seek": true,
	"ServeHTTP": true, "Header": true, "WriteHeader": true, "Flush": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// TestNoTestOnlyExports fails on a package-level func, type, var, const or
// method under internal/, exported or not, that no non-test file of the
// repository — internal/, cmd/, examples/, the root package or the bench/
// module — reaches outside its own declaration, unless testOnlyAllowlist
// names it. Such code is kept alive only by its own tests: delete it, move it
// into a _test.go file of its package, or allowlist it with the test that
// needs it. The tree is type-checked, so a method is told apart from another
// type's method of the same name; a file that does not type-check fails the
// test.
func TestNoTestOnlyExports(t *testing.T) {
	u, err := typeCheck(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	unused, stale := testOnlyExports(u, testOnlyAllowlist)
	for _, k := range unused {
		t.Errorf("%s is declared under internal/ but only tests reach it: delete it, move it into a _test.go file, or allowlist it in deadcode_test.go", k)
	}
	for _, k := range stale {
		t.Errorf("allowlist entry %s is stale: it no longer names a declaration that only tests reach", k)
	}
}

// TestTestOnlyExportsFixture runs the checker on a small tree: an unused
// export, one only a test calls and an unused unexported func are flagged; so
// are a method whose name another type's used method shares, a method whose
// interface method nobody calls, a type only its own method's receiver names
// and a generic type's uncalled method. A method reached only through an
// interface call, the generic method an instantiation calls, an allowlisted
// oracle and a String method pass, and allowlist entries
// for a missing name and for a name a caller uses are reported stale. A file
// that does not type-check fails the checker.
func TestTestOnlyExportsFixture(t *testing.T) {
	tree := fstest.MapFS{
		"internal/lib/lib.go": {Data: []byte(`package lib

type T struct{}

func (T) String() string { return "t" }

func Used() T { used(); return T{} }

func used() {}

func helper() {}

func Unused() {}

func TestOnly() {}

func Oracle() int { return 1 }

// A and B share a method name; only A's is called.
type A struct{}

func (A) Get() int { return 1 }

type B struct{}

func (B) Get() int { return 2 }

// C's Size is reached only through Sizer.
type Sizer interface{ Size() int }

func Total(s Sizer) int { return s.Size() }

type C struct{}

func (*C) Size() int { return 3 }

// D implements Namer, whose Name nobody calls.
type Namer interface{ Name() string }

type D struct{}

func (D) Name() string { return "d" }

// Only Lonely's own method names it.
type Lonely struct{}

func (Lonely) String() string { return "" }

// Set[int].Add is called, so the generic Add is reached; Drop is not.
type Set[K comparable] map[K]bool

func (s Set[K]) Add(k K) { s[k] = true }

func (s Set[K]) Drop(k K) { delete(s, k) }
`)},
		"internal/lib/lib_test.go":   {Data: []byte("package lib\n\nfunc use() { TestOnly(); _ = Oracle(); helper() }\n")},
		"internal/lib/testdata/x.go": {Data: []byte("package x\n\nimport \"repro/internal/lib\"\n\nfunc x() { lib.Unused() }\n")},
		"cmd/tool/main.go": {Data: []byte(`package main

import "repro/internal/lib"

var (
	_ lib.B
	_ lib.Namer = lib.D{}
)

func main() {
	println(lib.Used().String(), lib.A{}.Get(), lib.Total(&lib.C{}))
	lib.Set[int]{}.Add(1)
}
`)},
		"bench/adapter.go":              {Data: []byte("package main\n")},
		"internal/lib/README.md":        {Data: []byte("lib.Unused\n")},
		".hidden/internal/lib/extra.go": {Data: []byte("package lib\n\nfunc Hidden() {}\n")},
	}
	u, err := typeCheck(tree)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{
		"lib.Oracle": "oracle",
		"lib.Gone":   "deleted since",
		"lib.Used":   "called by cmd/tool",
	}
	unused, stale := testOnlyExports(u, allow)
	if want := []string{"lib.B.Get", "lib.D.Name", "lib.Lonely", "lib.Set.Drop", "lib.TestOnly", "lib.Unused", "lib.helper"}; !slices.Equal(unused, want) {
		t.Errorf("flagged %v, want %v", unused, want)
	}
	if want := []string{"lib.Gone", "lib.Used"}; !slices.Equal(stale, want) {
		t.Errorf("stale %v, want %v", stale, want)
	}

	tree["cmd/tool/main.go"] = &fstest.MapFile{Data: []byte("package main\n\nimport \"repro/internal/lib\"\n\nfunc main() { lib.Missing() }\n")}
	if _, err := typeCheck(tree); err == nil || !strings.Contains(err.Error(), "Missing") {
		t.Errorf("a file that does not type-check: err = %v, want an undefined lib.Missing", err)
	}
}

// universe is every non-test package of a tree, type-checked together so that
// an identifier anywhere resolves to the one object it names.
type universe struct {
	pkgs map[string]*typedPackage // by directory
	info *types.Info
}

// typedPackage is one directory's non-test files and their package.
type typedPackage struct {
	dir   string // slash-separated, relative to the root: "internal/spmat", "bench", "."
	files []*ast.File
	pkg   *types.Package
}

// typeCheck parses every non-test .go file of fsys, skipping testdata and
// hidden or underscore-prefixed directories as the go command does, and
// type-checks each directory as the package "repro/<dir>" ("repro" for the
// root; the bench/ module's path is repro/bench). The standard library comes
// from the Go installation's export data. Any type error fails the check.
func typeCheck(fsys fs.FS) (*universe, error) {
	fset := token.NewFileSet()
	u := &universe{pkgs: map[string]*typedPackage{}, info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := path.Dir(p)
		if u.pkgs[dir] == nil {
			u.pkgs[dir] = &typedPackage{dir: dir}
		}
		u.pkgs[dir].files = append(u.pkgs[dir].files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	byPath := map[string]*typedPackage{}
	for dir, p := range u.pkgs {
		byPath[importPath(dir)] = p
	}
	std := importer.Default()
	var errs []error
	var check func(p *typedPackage) *types.Package
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if p, ok := byPath[path]; ok {
				return check(p), nil
			}
			return std.Import(path)
		}),
		Error: func(err error) { errs = append(errs, err) },
	}
	check = func(p *typedPackage) *types.Package {
		if p.pkg == nil {
			p.pkg, _ = conf.Check(importPath(p.dir), fset, p.files, u.info)
		}
		return p.pkg
	}
	for _, dir := range slices.Sorted(maps.Keys(u.pkgs)) {
		check(u.pkgs[dir])
	}
	return u, errors.Join(errs...)
}

// importPath is the import path of a directory of the repository.
func importPath(dir string) string {
	if dir == "." {
		return "repro"
	}
	return "repro/" + dir
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// decl is one package-level declaration under internal/ and the span of
// source it covers, inside which a use does not count.
type decl struct {
	key        string // "spmat.CSC.Validate"
	obj        types.Object
	start, end token.Pos
}

// testOnlyExports returns, sorted, the keys of the package-level declarations
// under internal/ that nothing outside their own declaration reaches and that
// allow does not name, and the keys of allow that name no such declaration.
// A declaration is reached by an identifier the type checker resolves to it
// (through Origin for a generic type's method) — a method's receiver naming
// its type is not a use. A method is also reached when its type or a pointer
// to it implements an interface whose method of that name is used, or when
// the standard library calls methods of its name through an interface.
func testOnlyExports(u *universe, allow map[string]string) (unused, stale []string) {
	const internalDir = "internal/"
	var decls []decl
	receivers := map[token.Pos]bool{} // receiver type names, which name a type but do not use it
	for _, p := range u.pkgs {
		pkg, ok := strings.CutPrefix(p.dir, internalDir)
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, isFunc := d.(*ast.FuncDecl); isFunc && fd.Recv != nil {
					receivers[receiverIdent(fd.Recv.List[0].Type).Pos()] = true
				}
				if !ok {
					continue
				}
				add := func(id *ast.Ident, node ast.Node) {
					if id.Name != "_" && id.Name != "init" {
						decls = append(decls, decl{key: pkg + "." + declName(u.info.Defs[id]), obj: u.info.Defs[id],
							start: node.Pos(), end: node.End()})
					}
				}
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name, d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, id)
							}
						}
					}
				}
			}
		}
	}

	uses := map[types.Object][]token.Pos{}
	ifaceMethods := map[string][]*types.Interface{} // used interface methods by name
	for id, obj := range u.info.Uses {
		if receivers[id.Pos()] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			obj = fn
			if recv := fn.Signature().Recv(); recv != nil {
				if it, ok := recv.Type().Underlying().(*types.Interface); ok {
					ifaceMethods[fn.Name()] = append(ifaceMethods[fn.Name()], it)
				}
			}
		}
		uses[obj] = append(uses[obj], id.Pos())
	}
	implementsUsed := func(fn *types.Func) bool {
		if stdInterfaceMethods[fn.Name()] {
			return true
		}
		named := receiverType(fn)
		return slices.ContainsFunc(ifaceMethods[fn.Name()], func(it *types.Interface) bool {
			// Implements is unspecified for an uninstantiated generic type;
			// its method counts by name alone.
			return named.TypeParams().Len() > 0 ||
				types.Implements(named, it) || types.Implements(types.NewPointer(named), it)
		})
	}

	allowed := map[string]bool{}
	for _, d := range decls {
		if fn, ok := d.obj.(*types.Func); ok && fn.Signature().Recv() != nil && implementsUsed(fn) {
			continue
		}
		if slices.ContainsFunc(uses[d.obj], func(pos token.Pos) bool { return pos < d.start || pos >= d.end }) {
			continue
		}
		if _, ok := allow[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		unused = append(unused, d.key)
	}
	for k := range allow {
		if !allowed[k] {
			stale = append(stale, k)
		}
	}
	slices.Sort(unused)
	slices.Sort(stale)
	return unused, stale
}

// declName is a declaration's name within its package: "CSC.Validate" for a
// method, "Dense" otherwise.
func declName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		return receiverType(fn).Obj().Name() + "." + fn.Name()
	}
	return obj.Name()
}

// receiverType is the named type a concrete method is declared on.
func receiverType(fn *types.Func) *types.Named {
	recv := types.Unalias(fn.Signature().Recv().Type())
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = types.Unalias(ptr.Elem())
	}
	return recv.(*types.Named)
}

// receiverIdent is the identifier naming a method's receiver type: CSC in
// (m *CSC) or (s Set[T]).
func receiverIdent(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverIdent(e.X)
	case *ast.IndexExpr:
		return receiverIdent(e.X)
	case *ast.IndexListExpr:
		return receiverIdent(e.X)
	case *ast.ParenExpr:
		return receiverIdent(e.X)
	}
	return e.(*ast.Ident)
}
