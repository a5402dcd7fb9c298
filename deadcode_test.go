package spgemm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
)

// testOnlyAllowlist names the exported identifiers under internal/ that no
// non-test file calls but that stay on purpose. A key is the declaring
// package's path below internal/ and the name ("spmat.Dense",
// "spmat.CSC.Validate" for a method); the value says which test, benchmark or
// fuzz target relies on it. An entry that no longer names an unreferenced
// declaration fails TestNoTestOnlyExports, so the list cannot go stale.
var testOnlyAllowlist = map[string]string{
	// Reference oracles: tests compare the engine against them.
	"localmm.ColFlops":                  "oracle: TestFlopsSmall and the regime and lending tests count flops per column",
	"localmm.SPASpGEMM":                 "oracle: TestSPAMatchesReference, the dense-accumulator kernel",
	"apps.Serial":                       "oracle: TestSerialAdapterMatchesService runs an app on one process",
	"apps/tricount.CountSerialUnmasked": "oracle: TestMaskedAndUnmaskedAgree holds the masked count to it",
	"apps/matching.Result.Validate":     "oracle: the matching tests check every result is a valid matching",
	"spmat.CSC.Validate":                "oracle: FuzzDeserializeMatrix and the kernel tests check CSC invariants",
	"spmat.DCSC.Validate":               "oracle: FuzzDeserializeMatrix and the DCSC tests check DCSC invariants",
	"distmat.ADist.Assemble":            "oracle: TestADistributeAssembleRoundTrip reassembles the split A",
	"distmat.BDist.Assemble":            "oracle: TestDistributionRoundTripProperty reassembles the split B",
	"spmat.Add":                         "oracle: the localmm merge tests sum their operands with it",
	// Fixture builders.
	"spmat.Dense":         "fixture: the spmat, localmm and mcl tests build matrices from dense literals",
	"spmat.CSC.ToDense":   "fixture: the localmm kernel tests compare products as dense arrays",
	"spmat.CSC.DropZeros": "fixture: the localmm kernel and mask tests drop explicit zeros before comparing",
	"spmat.HCat":          "fixture: the core tests read a rank's pieces as one CSC; localmm regime fixtures",
	// The paper's Sec. IV-B batch-split ablation (root bench_test.go).
	"spmat.ColSplit":       "ablation: BenchmarkBatchSplitBlock and the merge-per-stage benchmarks",
	"spmat.ColSplitCyclic": "ablation: BenchmarkBatchSplitCyclic",
	"spmat.ConcatCyclic":   "ablation: TestConcatCyclicInvertsSplit holds it to ColSplitCyclic",
	"genmat.Permutation":   "ablation: the merge benchmarks and TestPermutationIsPermutation",
	// The dense wire decoder make fuzz runs.
	"spmat.DeserializeDense": "fuzz: FuzzDeserializeDense",
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

// TestNoTestOnlyExports fails on an exported package-level func, type, var,
// const or method under internal/ that no non-test file of the repository —
// internal/, cmd/, examples/, the root package or the bench/ module —
// references outside its own declaration, unless testOnlyAllowlist names it.
// Such code is kept alive only by its own tests: delete it, move it into a
// _test.go file of its package, or allowlist it with the test that needs it.
func TestNoTestOnlyExports(t *testing.T) {
	files, err := parseNonTestFiles(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	unused, stale := testOnlyExports(files, testOnlyAllowlist)
	for _, k := range unused {
		t.Errorf("%s is exported but only tests reach it: delete it, move it into a _test.go file, or allowlist it in deadcode_test.go", k)
	}
	for _, k := range stale {
		t.Errorf("allowlist entry %s is stale: it no longer names an exported declaration that only tests reach", k)
	}
}

// TestTestOnlyExportsFixture runs the checker on a small tree: an unused
// export and one only a test calls are flagged, an allowlisted oracle and a
// String method pass, and allowlist entries for a missing name and for a name
// a caller uses are reported stale.
func TestTestOnlyExportsFixture(t *testing.T) {
	tree := fstest.MapFS{
		"internal/lib/lib.go": {Data: []byte(`package lib

type T struct{}

func (T) String() string { return "t" }

func Used() T { return T{} }

func Unused() {}

func TestOnly() {}

func Oracle() int { return 1 }
`)},
		"internal/lib/lib_test.go":      {Data: []byte("package lib\n\nfunc use() { TestOnly(); _ = Oracle() }\n")},
		"internal/lib/testdata/x.go":    {Data: []byte("package x\n\nimport \"repro/internal/lib\"\n\nfunc x() { lib.Unused() }\n")},
		"cmd/tool/main.go":              {Data: []byte("package main\n\nimport \"repro/internal/lib\"\n\nfunc main() { println(lib.Used().String()) }\n")},
		"bench/adapter.go":              {Data: []byte("package main\n")},
		"internal/lib/README.md":        {Data: []byte("lib.Unused\n")},
		".hidden/internal/lib/extra.go": {Data: []byte("package lib\n\nfunc Hidden() {}\n")},
	}
	files, err := parseNonTestFiles(tree)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{
		"lib.Oracle": "oracle",
		"lib.Gone":   "deleted since",
		"lib.Used":   "called by cmd/tool",
	}
	unused, stale := testOnlyExports(files, allow)
	if want := []string{"lib.TestOnly", "lib.Unused"}; !slices.Equal(unused, want) {
		t.Errorf("flagged %v, want %v", unused, want)
	}
	if want := []string{"lib.Gone", "lib.Used"}; !slices.Equal(stale, want) {
		t.Errorf("stale %v, want %v", stale, want)
	}
}

// parseNonTestFiles parses every non-test .go file of fsys, skipping
// testdata and hidden or underscore-prefixed directories as the go command
// does.
func parseNonTestFiles(fsys fs.FS) ([]sourceFile, error) {
	fset := token.NewFileSet()
	var files []sourceFile
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
		files = append(files, sourceFile{dir: path.Dir(p), file: f})
		return nil
	})
	return files, err
}

// sourceFile is one parsed non-test file and its directory, slash-separated
// and relative to the repository root ("internal/spmat", "bench", ".").
type sourceFile struct {
	dir  string
	file *ast.File
}

// exportDecl is one exported declaration under internal/ and the span of
// source it covers, inside which a mention does not count as a reference.
type exportDecl struct {
	key        string // "spmat.CSC.Validate"
	ref        ref    // declaring package's directory and identifier
	method     bool
	start, end token.Pos
}

// ref is a name as a package sees it: a directory and an identifier.
type ref struct{ dir, name string }

// testOnlyExports returns, sorted, the keys of the exported declarations under
// internal/ that nothing outside their own declaration references and that
// allow does not name, and the keys of allow that name no such declaration.
// References are matched by name: a package-level identifier by a bare use in
// its own package or a selector on its package's import name elsewhere, a
// method by any selector of its name or by an interface method of that name.
func testOnlyExports(files []sourceFile, allow map[string]string) (unused, stale []string) {
	const internalDir = "internal/"
	var decls []exportDecl
	pkgName := map[string]string{} // directory → package name
	ifaceMethods := map[string]bool{}
	for _, sf := range files {
		pkgName[sf.dir] = sf.file.Name.Name
		ast.Inspect(sf.file, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, id := range m.Names {
						ifaceMethods[id.Name] = true
					}
				}
			}
			return true
		})
		if !strings.HasPrefix(sf.dir, internalDir) {
			continue
		}
		pkg := strings.TrimPrefix(sf.dir, internalDir)
		add := func(name, key string, method bool, node ast.Node) {
			decls = append(decls, exportDecl{key: pkg + "." + key, ref: ref{sf.dir, name}, method: method,
				start: node.Pos(), end: node.End()})
		}
		for _, d := range sf.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					add(d.Name.Name, d.Name.Name, false, d)
				} else {
					add(d.Name.Name, receiverType(d.Recv.List[0].Type)+"."+d.Name.Name, true, d)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add(s.Name.Name, s.Name.Name, false, s)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								add(id.Name, id.Name, false, id)
							}
						}
					}
				}
			}
		}
	}

	// uses holds where each name is mentioned — a bare identifier or a
	// selector on a package's import name under that package's directory, a
	// method selector under the method name alone — as positions, unique
	// across the files' one FileSet.
	uses := map[ref][]token.Pos{}
	note := func(r ref, pos token.Pos) { uses[r] = append(uses[r], pos) }
	for _, sf := range files {
		imports := map[string]string{} // local name → imported directory
		for _, im := range sf.file.Imports {
			dir, ok := strings.CutPrefix(strings.Trim(im.Path.Value, `"`), "repro/")
			if !ok {
				continue
			}
			local := pkgName[dir]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = dir
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// A method's receiver names its type but does not use it.
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						note(ref{dir, n.Sel.Name}, n.Sel.Pos())
						return false
					}
				}
				note(ref{"", n.Sel.Name}, n.Sel.Pos())
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				note(ref{sf.dir, n.Name}, n.Pos())
			}
			return true
		}
		for _, d := range sf.file.Decls {
			ast.Inspect(d, visit)
		}
	}

	allowed := map[string]bool{}
	for _, d := range decls {
		r := d.ref
		if d.method {
			if ifaceMethods[r.name] || stdInterfaceMethods[r.name] {
				continue
			}
			r.dir = ""
		}
		if slices.ContainsFunc(uses[r], func(pos token.Pos) bool { return pos < d.start || pos >= d.end }) {
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

// receiverType names a method's receiver type: "CSC" for (m *CSC) or
// (s Set[T]).
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
