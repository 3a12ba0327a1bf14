package engine_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// walkModule parses every Go source of the root module and hands it to
// visit with its slash-separated path relative to the module root; nested
// modules (benchmark/) and dot-directories are not part of it.
func walkModule(t *testing.T, visit func(rel string, f *ast.File)) {
	t.Helper()
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator))), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneKernel is the mechanical form of "one out-of-order SSC kernel":
// only internal/core builds on the active instance stacks, there is one
// negative store, and the layers around the kernel (the reorder buffer, the
// policy switch) reach neither the deleted speculative engine's shim nor
// the in-order baseline.
func TestOneKernel(t *testing.T) {
	negStores := 0
	walkModule(t, func(rel string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(rel))
		isTest := strings.HasSuffix(rel, "_test.go")
		for _, imp := range f.Imports {
			target, _ := strconv.Unquote(imp.Path.Value)
			switch target {
			case "oostream/internal/ais":
				if !isTest && dir != "internal/core" {
					t.Errorf("%s imports %s: only internal/core builds on the stacks", rel, target)
				}
			case "oostream/internal/speculate", "oostream/internal/inorder":
				if dir == "internal/hybrid" || dir == "internal/kslack" {
					t.Errorf("%s imports %s: the layers around the kernel know only internal/core", rel, target)
				}
			}
		}
		if isTest {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "negStore" {
				negStores++
			}
			return true
		})
	})
	if negStores != 1 {
		t.Errorf("found %d negStore types, want exactly one (internal/core)", negStores)
	}
}

// TestOneLayout is the mechanical form of "the key group is the kernel's only
// unit of state": internal/core keeps no bare stack set and no per-negation
// store list beside the keyed structures (an engine without a key attribute
// files everything under the zero key), and nothing outside internal/ais
// builds an ungrouped ais.Stacks. Non-test sources only; the nested
// benchmark/ module, whose shadow for unkeyed plans still replays ais.New, is
// not walked (ROADMAP 1(b)).
func TestOneLayout(t *testing.T) {
	// isAIS recognizes ais.<name>.
	isAIS := func(e ast.Expr, name string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "ais" && sel.Sel.Name == name
	}
	walkModule(t, func(rel string, f *ast.File) {
		if strings.HasSuffix(rel, "_test.go") {
			return
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if dir != "internal/ais" && isAIS(n.Fun, "New") {
					t.Errorf("%s calls ais.New: stacks live in key groups (ais.NewKeyed), under the zero key when the query has none", rel)
				}
			case *ast.StructType:
				if dir != "internal/core" {
					break
				}
				for _, field := range n.Fields.List {
					if len(field.Names) == 1 && field.Names[0].Name == "walkStacks" {
						// Construction scratch: the group of the trigger being
						// walked, borrowed from the keyed stacks for one construct.
						continue
					}
					if ptr, ok := field.Type.(*ast.StarExpr); ok && isAIS(ptr.X, "Stacks") {
						t.Errorf("%s: field %v is a bare *ais.Stacks: a second, ungrouped state layout", rel, field.Names)
					}
					if arr, ok := field.Type.(*ast.ArrayType); ok && arr.Len == nil {
						if ptr, ok := arr.Elt.(*ast.StarExpr); ok {
							if id, ok := ptr.X.(*ast.Ident); ok && id.Name == "negStore" {
								t.Errorf("%s: field %v is a []*negStore: negative stores are per key group", rel, field.Names)
							}
						}
					}
				}
			}
			return true
		})
	})
}

// TestOneQueue is the mechanical form of "one release-by-watermark queue":
// everything that holds items by timestamp and releases what a safe clock has
// passed (the reorder buffer, both pending sets, the ordered-output buffer,
// the expiry orders) is an internal/queue.Queue. No non-test source imports
// container/heap, and no non-test type outside internal/queue has the
// Len/Less/Swap trio a hand-written heap or sorted holder starts with. The
// binary heap lives on in internal/queue's tests, as the reference.
func TestOneQueue(t *testing.T) {
	trio := map[string]map[string]bool{} // "dir.Type" -> which of Len, Less, Swap it declares
	walkModule(t, func(rel string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(rel))
		if strings.HasSuffix(rel, "_test.go") {
			return
		}
		for _, imp := range f.Imports {
			if target, _ := strconv.Unquote(imp.Path.Value); target == "container/heap" {
				t.Errorf("%s imports container/heap: hold and release through internal/queue", rel)
			}
		}
		if dir == "internal/queue" {
			return
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List) != 1 {
				continue
			}
			switch fn.Name.Name {
			case "Len", "Less", "Swap":
			default:
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if idx, ok := recv.(*ast.IndexExpr); ok { // a generic receiver, T[P]
				recv = idx.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				name := dir + "." + id.Name
				if trio[name] == nil {
					trio[name] = map[string]bool{}
				}
				trio[name][fn.Name.Name] = true
			}
		}
	})
	for name, has := range trio {
		if len(has) == 3 {
			t.Errorf("%s declares Len, Less and Swap: a sorted holder of its own; the queue is internal/queue", name)
		}
	}
}

// TestOneEvaluator is the mechanical form of "a predicate is a flat program":
// internal/predicate runs instructions in a loop and builds no tree of
// closures. No struct of its non-test sources has a func-typed field (by a
// literal func type or a func type the package names, SlotResolver
// included), and no function literal there returns (event.Value, error),
// the signature every node of the deleted tree had.
func TestOneEvaluator(t *testing.T) {
	files := map[string]*ast.File{}
	funcTypes := map[string]bool{}
	walkModule(t, func(rel string, f *ast.File) {
		if strings.HasSuffix(rel, "_test.go") || filepath.ToSlash(filepath.Dir(rel)) != "internal/predicate" {
			return
		}
		files[rel] = f
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if _, isFunc := ts.Type.(*ast.FuncType); isFunc {
					funcTypes[ts.Name.Name] = true
				}
			}
			return true
		})
	})
	if len(files) == 0 {
		t.Fatal("no source of internal/predicate walked: the test checks nothing")
	}
	isFunc := func(e ast.Expr) bool {
		if id, ok := e.(*ast.Ident); ok {
			return funcTypes[id.Name]
		}
		_, ok := e.(*ast.FuncType)
		return ok
	}
	for rel, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if isFunc(field.Type) {
						t.Errorf("%s: struct field %v is a function: a predicate is instructions, not closures", rel, field.Names)
					}
				}
			case *ast.FuncLit:
				res := n.Type.Results
				if res == nil || len(res.List) != 2 {
					break
				}
				sel, ok := res.List[0].Type.(*ast.SelectorExpr)
				errType, isIdent := res.List[1].Type.(*ast.Ident)
				if ok && isIdent && sel.Sel.Name == "Value" && errType.Name == "error" {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "event" {
						t.Errorf("%s: a function literal returns (event.Value, error): that is a node of the closure tree", rel)
					}
				}
			}
			return true
		})
	}
}

// TestTreeIsAReference: the aggregation operator runs fiba.Run; fiba.Tree is
// the structure it is tested and measured against. No non-test source builds
// one (fiba.New) outside internal/fiba and the experiment harness
// internal/bench, which no library package imports. The nested benchmark/
// module, whose per-layer shadow still times the tree, is not walked
// (ROADMAP 1(b)).
func TestTreeIsAReference(t *testing.T) {
	walkModule(t, func(rel string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(rel))
		if strings.HasSuffix(rel, "_test.go") || dir == "internal/fiba" || dir == "internal/bench" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "New" {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fiba" {
						t.Errorf("%s calls fiba.New: the tree is a test reference; window state is a fiba.Run", rel)
					}
				}
			}
			return true
		})
		for _, imp := range f.Imports {
			if target, _ := strconv.Unquote(imp.Path.Value); target == "oostream/internal/bench" && !strings.HasPrefix(dir, "cmd/") {
				t.Errorf("%s imports internal/bench: the experiment harness is for cmd/espbench and tests", rel)
			}
		}
	})
}

// TestOneContract is the mechanical form of "one engine contract,
// instruments at construction": internal/engine declares exactly one
// interface, nothing discovers a capability by asserting to an engine
// interface, and no type has a method that attaches an instrument after
// construction. Non-test sources only.
func TestOneContract(t *testing.T) {
	setters := map[string]bool{
		"SetLatencySampler": true, "EnableProvenance": true, "ObserveShards": true, "WithLatency": true,
	}
	interfaces := 0
	walkModule(t, func(rel string, f *ast.File) {
		if strings.HasSuffix(rel, "_test.go") {
			return
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		// isEngineInterface recognizes engine.X, and bare X inside the package.
		isEngineInterface := func(e ast.Expr) bool {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				pkg, ok := sel.X.(*ast.Ident)
				return ok && pkg.Name == "engine"
			}
			id, ok := e.(*ast.Ident)
			return ok && dir == "internal/engine" && id.Name == "Engine"
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if _, ok := n.Type.(*ast.InterfaceType); ok && dir == "internal/engine" {
					interfaces++
				}
			case *ast.TypeAssertExpr:
				if n.Type != nil && isEngineInterface(n.Type) {
					t.Errorf("%s: type assertion to an engine interface; the contract is one interface, call the method", rel)
				}
			case *ast.TypeSwitchStmt:
				for _, clause := range n.Body.List {
					for _, typ := range clause.(*ast.CaseClause).List {
						if isEngineInterface(typ) {
							t.Errorf("%s: type switch on an engine interface", rel)
						}
					}
				}
			case *ast.FuncDecl:
				if n.Recv == nil || dir == "internal/obsv" || dir == "internal/adaptive" {
					break
				}
				late := setters[n.Name.Name]
				if n.Name.Name == "Observe" && n.Type.Params.NumFields() == 2 {
					// Observe(*obsv.Series, obsv.TraceHook), not a histogram's Observe(v).
					late = true
				}
				if late {
					t.Errorf("%s: method %s attaches an instrument after construction; pass it in the layer's engine.Env", rel, n.Name.Name)
				}
			}
			return true
		})
	})
	if interfaces != 1 {
		t.Errorf("internal/engine declares %d interface types, want exactly one (Engine)", interfaces)
	}
}

// TestOnePartitioning is the mechanical form of "the kernel's key groups are
// the partition": nothing routes a stream across several engines of one
// query. internal/shard does not exist, oostream.Config has no Partition
// field, and no non-test type outside internal/queryset (one engine per
// registered query, not per share of a stream) holds a slice or a map of
// engine.Engine.
func TestOnePartitioning(t *testing.T) {
	if _, err := os.Stat(filepath.Join("..", "shard")); err == nil {
		t.Error("internal/shard exists: a partitionable query already runs keyed in the kernel (EXPERIMENTS.md E34)")
	}
	walkModule(t, func(rel string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(rel))
		if strings.HasSuffix(rel, "_test.go") || dir == "internal/queryset" {
			return
		}
		isEngine := func(e ast.Expr) bool {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				pkg, ok := sel.X.(*ast.Ident)
				return ok && pkg.Name == "engine" && sel.Sel.Name == "Engine"
			}
			id, ok := e.(*ast.Ident)
			return ok && dir == "internal/engine" && id.Name == "Engine"
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok && dir == "." && ts.Name.Name == "Config" {
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if name.Name == "Partition" {
							t.Errorf("%s: Config has a Partition field", rel)
						}
					}
				}
			}
			ast.Inspect(ts.Type, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ArrayType:
					if isEngine(n.Elt) {
						t.Errorf("%s: type %s holds a slice of engine.Engine; one engine runs one query, keyed", rel, ts.Name.Name)
					}
				case *ast.MapType:
					if isEngine(n.Value) {
						t.Errorf("%s: type %s holds a map of engine.Engine; one engine runs one query, keyed", rel, ts.Name.Name)
					}
				}
				return true
			})
			return false
		})
	})
}

// TestEveryRunnerHasAnEntryPoint is the mechanical form of "no concurrency
// nobody runs": every package under internal/ is reachable, through
// non-test imports, from package oostream or a cmd/ main, and library code
// starts goroutines only where a caller can get to them. A runner that only
// tests and the differential harness construct (the goroutine-per-shard
// runner and its ring, the fan-out runtime, the idle-heartbeat pipeline;
// EXPERIMENTS.md E28) shows up here before it collects gauges, docs and
// roadmap items.
func TestEveryRunnerHasAnEntryPoint(t *testing.T) {
	// Reachable from neither root on purpose, with the reason.
	unreached := map[string]string{
		"internal/speculate": "shim for benchmark/layers.go, a nested module this walk does not enter; goes with ROADMAP 1(b)",
	}
	// The only library sources that may hold a go statement.
	goAllowed := func(rel string) bool {
		return strings.HasPrefix(rel, "internal/obsv/httpx/")
	}

	imports := map[string][]string{} // package dir -> module-local package dirs it imports
	var roots []string
	walkModule(t, func(rel string, f *ast.File) {
		if strings.HasSuffix(rel, "_test.go") {
			return
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		if dir == "." || (strings.HasPrefix(dir, "cmd/") && f.Name.Name == "main") {
			roots = append(roots, dir)
		}
		if _, ok := imports[dir]; !ok {
			imports[dir] = nil // a package with no module-local import is still a package
		}
		for _, imp := range f.Imports {
			target, _ := strconv.Unquote(imp.Path.Value)
			if local, ok := strings.CutPrefix(target, "oostream/"); ok {
				imports[dir] = append(imports[dir], local)
			}
		}
		if strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/") || goAllowed(rel) {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if _, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement in library code; only the metrics HTTP server starts goroutines", rel)
			}
			return true
		})
	})

	reached := map[string]bool{}
	for queue := roots; len(queue) > 0; queue = queue[1:] {
		if dir := queue[0]; !reached[dir] {
			reached[dir] = true
			queue = append(queue, imports[dir]...)
		}
	}
	for dir := range imports {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		reason, allowed := unreached[dir]
		switch {
		case allowed && reached[dir]:
			t.Errorf("%s is reachable now: drop it from the allowlist (was: %s)", dir, reason)
		case !allowed && !reached[dir]:
			t.Errorf("%s is imported by no non-test code that package oostream or a cmd/ main reaches: give it an entry point or delete it", dir)
		}
	}
	for dir := range unreached {
		if _, ok := imports[dir]; !ok {
			t.Errorf("%s is allowlisted but has no non-test source: drop it from the allowlist", dir)
		}
	}
}

// TestOneFacade is the mechanical form of "one facade, one output type": in
// the root package's non-test sources exactly two exported struct types
// have a Process method, declared or promoted from an embedded type (Engine
// and QuerySet; a durable engine is one of them, not a third type), no
// exported method name ends in Results (Match is the one output type, so
// there is no second form of a verb), no exported type is named Result or
// Supervised*, and no panic is called outside a Must* function (misuse is
// an error, recorded in Err).
func TestOneFacade(t *testing.T) {
	methods := map[string]map[string]bool{} // receiver type -> its method names
	embeds := map[string][]string{}         // struct type -> the types it embeds
	var exported []string                   // exported struct types
	walkModule(t, func(rel string, f *ast.File) {
		if strings.HasSuffix(rel, "_test.go") || filepath.Dir(rel) != "." {
			return
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					if name := ts.Name.Name; name == "Result" || strings.HasPrefix(name, "Supervised") {
						t.Errorf("%s: exported type %s: a durable engine is an Engine or a QuerySet, and Match is the one output type", rel, name)
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					exported = append(exported, ts.Name.Name)
					for _, field := range st.Fields.List {
						if id, ok := field.Type.(*ast.Ident); ok && len(field.Names) == 0 {
							embeds[ts.Name.Name] = append(embeds[ts.Name.Name], id.Name)
						}
					}
				}
			case *ast.FuncDecl:
				if d.Recv != nil && len(d.Recv.List) == 1 {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						if methods[id.Name] == nil {
							methods[id.Name] = map[string]bool{}
						}
						methods[id.Name][d.Name.Name] = true
					}
					if d.Name.IsExported() && strings.HasSuffix(d.Name.Name, "Results") {
						t.Errorf("%s: method %s: a second form of a verb; return []Match", rel, d.Name.Name)
					}
				}
				if strings.HasPrefix(d.Name.Name, "Must") || d.Body == nil {
					continue
				}
				ast.Inspect(d.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
							t.Errorf("%s: %s panics; misuse is an error, recorded in Err", rel, d.Name.Name)
						}
					}
					return true
				})
			}
		}
	})
	var hasProcess func(typ string) bool
	hasProcess = func(typ string) bool {
		if methods[typ]["Process"] {
			return true
		}
		for _, e := range embeds[typ] {
			if hasProcess(e) {
				return true
			}
		}
		return false
	}
	var processors []string
	for _, typ := range exported {
		if hasProcess(typ) {
			processors = append(processors, typ)
		}
	}
	slices.Sort(processors)
	if !slices.Equal(processors, []string{"Engine", "QuerySet"}) {
		t.Errorf("exported types with a Process method: %v, want [Engine QuerySet]", processors)
	}
}
