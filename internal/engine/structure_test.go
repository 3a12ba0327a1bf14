package engine_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"oostream/internal/bench"
	"oostream/internal/obsv"
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
// only internal/core builds on the active instance stacks; the one sorted
// run of events is ais.Stack, so no non-test source outside internal/ais
// binary-searches events by timestamp (the stacks' and the negative stores'
// search) and no struct inside it wraps one event or points at its own type
// (the pointer-per-instance AIS with a stored RIP, now the package's test
// reference); the layers around the kernel (the reorder buffer, the policy
// switch) reach neither the deleted speculative engine's shim nor the
// in-order reference kernel; and only the experiments (internal/bench) and
// the examples drive that reference kernel, so no strategy, set, supervisor
// or operator can be built on it.
func TestOneKernel(t *testing.T) {
	// searchesEvents recognizes sort.Search or slices.BinarySearch* over
	// timestamps: a call whose arguments read a .TS field or call Before.
	searchesEvents := func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || !(pkg.Name == "sort" && sel.Sel.Name == "Search" || pkg.Name == "slices" && strings.HasPrefix(sel.Sel.Name, "BinarySearch")) {
			return false
		}
		found := false
		for _, arg := range call.Args {
			ast.Inspect(arg, func(n ast.Node) bool {
				if s, ok := n.(*ast.SelectorExpr); ok && (s.Sel.Name == "TS" || s.Sel.Name == "Before") {
					found = true
				}
				return !found
			})
		}
		return found
	}
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
			if target == "oostream/internal/inorder" && !isTest && dir != "internal/bench" && !strings.HasPrefix(dir, "examples/") {
				t.Errorf("%s imports %s: the in-order reference kernel is no strategy; only internal/bench and the examples drive it", rel, target)
			}
		}
		if isTest {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if dir != "internal/ais" && searchesEvents(n) {
					t.Errorf("%s binary-searches events by timestamp: a sorted run of events is an ais.Stack", rel)
				}
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || dir != "internal/ais" {
					break
				}
				for _, field := range st.Fields.List {
					typ := field.Type
					if star, ok := typ.(*ast.StarExpr); ok {
						if id, ok := star.X.(*ast.Ident); ok && id.Name == n.Name.Name {
							t.Errorf("%s: type %s points at itself (%v): a stack holds its events by value, and a RIP is derived by binary search", rel, n.Name.Name, field.Names)
						}
						typ = star.X
					}
					if sel, ok := typ.(*ast.SelectorExpr); ok && sel.Sel.Name == "Event" {
						if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "event" {
							t.Errorf("%s: type %s wraps one event (%v): a stack holds its events by value", rel, n.Name.Name, field.Names)
						}
					}
				}
			}
			return true
		})
	})
}

// TestOneLayout is the mechanical form of "the key group is the kernel's only
// unit of state": internal/core keeps no bare stack set and no per-negation
// store list (a slice of ais.Stack) beside the keyed structures (an engine
// without a key attribute files everything under the zero key), and nothing
// outside internal/ais
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
					if len(field.Names) == 1 && (field.Names[0].Name == "walkStack" || field.Names[0].Name == "negFree") {
						// Construction scratch: the stacks of the trigger's group,
						// borrowed from the keyed stacks for one construct; and
						// the negative stores purges emptied, which hold nothing.
						continue
					}
					if ptr, ok := field.Type.(*ast.StarExpr); ok && isAIS(ptr.X, "Stacks") {
						t.Errorf("%s: field %v is a bare *ais.Stacks: a second, ungrouped state layout", rel, field.Names)
					}
					if arr, ok := field.Type.(*ast.ArrayType); ok && arr.Len == nil {
						elt := arr.Elt
						if ptr, ok := elt.(*ast.StarExpr); ok {
							elt = ptr.X
						}
						if isAIS(elt, "Stack") {
							t.Errorf("%s: field %v is a slice of ais.Stack: negative stores are per key group", rel, field.Names)
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
// passed (the reorder buffer, both pending sets, the expiry orders) is an
// internal/queue.Queue. No non-test source imports
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

// TestOneCandidateFilter is the mechanical form of "a trigger filters its
// partner slot once": internal/core settles the trigger-pair predicates in
// per-trigger pass lists before the walk, and the per-visit verdict table
// they replaced — pairHolds, the verdictHolds/verdictFails states, the
// Engine's verdict field — stays deleted. Non-test sources only.
func TestOneCandidateFilter(t *testing.T) {
	walked := false
	walkModule(t, func(rel string, f *ast.File) {
		if strings.HasSuffix(rel, "_test.go") || filepath.ToSlash(filepath.Dir(rel)) != "internal/core" {
			return
		}
		walked = true
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Name.Name == "pairHolds" {
					t.Errorf("%s declares pairHolds: trigger-pair predicates are evaluated once per candidate in reach, into a pass list", rel)
				}
			case *ast.ValueSpec:
				for _, name := range n.Names {
					if name.Name == "verdictHolds" || name.Name == "verdictFails" {
						t.Errorf("%s declares %s: there is one filter, the pass lists", rel, name.Name)
					}
				}
			case *ast.Field:
				for _, name := range n.Names {
					if name.Name == "verdict" {
						t.Errorf("%s: a field named verdict is back beside the pass lists", rel)
					}
				}
			}
			return true
		})
	})
	if !walked {
		t.Fatal("no source of internal/core walked: the test checks nothing")
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

// TestAggregateKeepsNoMatchIdentity is the mechanical form of "an aggregate
// element is its time and its value": non-test internal/agg renders no match
// key (a call to .Key()) and holds no string-keyed map in a struct, so a
// retraction finds its element by group, timestamp and partial, not through
// a per-match index that every inner match would pay for.
func TestAggregateKeepsNoMatchIdentity(t *testing.T) {
	walked := false
	walkModule(t, func(rel string, f *ast.File) {
		if strings.HasSuffix(rel, "_test.go") || filepath.ToSlash(filepath.Dir(rel)) != "internal/agg" {
			return
		}
		walked = true
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Key" && len(n.Args) == 0 {
					t.Errorf("%s calls .Key(): an element carries no match identity", rel)
				}
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if m, ok := field.Type.(*ast.MapType); ok {
						if k, ok := m.Key.(*ast.Ident); ok && k.Name == "string" {
							t.Errorf("%s declares a map[string] field: no string index over elements or matches", rel)
						}
					}
				}
			}
			return true
		})
	})
	if !walked {
		t.Fatal("no source of internal/agg walked: the test checks nothing")
	}
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

// TestOneStep is the mechanical form of "one step, one call": a layer
// reports each lifecycle step through engine.Tap, which alone moves the
// step's counters and builds its trace event. Outside internal/engine and
// internal/obsv no non-test source writes a TraceEvent composite literal;
// no struct of a layer package holds a hook, a sampler, or the fields the
// tap replaced (met, trace, traceName, lat); and obsv.Series has no step
// method of its own.
func TestOneStep(t *testing.T) {
	layers := map[string]bool{
		"internal/core": true, "internal/kslack": true, "internal/agg": true,
		"internal/hybrid": true, "internal/queryset": true, "internal/runtime": true,
	}
	replaced := map[string]bool{"met": true, "trace": true, "traceName": true, "lat": true}
	isObsv := func(e ast.Expr, name string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "obsv" && sel.Sel.Name == name
	}
	walked := 0
	walkModule(t, func(rel string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(rel))
		if strings.HasSuffix(rel, "_test.go") || dir == "internal/engine" || dir == "internal/obsv" {
			return
		}
		if layers[dir] {
			walked++
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if id, ok := n.Type.(*ast.Ident); isObsv(n.Type, "TraceEvent") || ok && id.Name == "TraceEvent" {
					t.Errorf("%s builds a TraceEvent: report the step through engine.Tap", rel)
				}
			case *ast.StructType:
				if !layers[dir] {
					break
				}
				for _, field := range n.Fields.List {
					typ := field.Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if isObsv(typ, "TraceHook") || isObsv(typ, "LatencySampler") {
						t.Errorf("%s: a struct field holds an obsv hook or sampler; the layer holds one engine.Tap", rel)
					}
					for _, id := range field.Names {
						if replaced[id.Name] {
							t.Errorf("%s: struct field %s is what engine.Tap replaced", rel, id.Name)
						}
					}
				}
			}
			return true
		})
	})
	if walked < len(layers) {
		t.Fatalf("walked %d sources of the %d layer packages: the test checks too little", walked, len(layers))
	}
	series := reflect.TypeFor[*obsv.Series]()
	for _, step := range []string{"IncIn", "AddMatch", "ObservePurge"} {
		if _, ok := series.MethodByName(step); ok {
			t.Errorf("obsv.Series declares %s: the step is engine.Tap's", step)
		}
	}
}

// TestOneInstrumentSet is the mechanical form of "one instrument set":
// engines publish into obsv.Series and Metrics reads what the scrape reads.
// internal/metrics (the forwarding collector and its second histogram) does
// not exist; every Counter, Gauge and Hist field of obsv.Series is a row of
// the one instrument table and a field of obsv.Snapshot of the same name;
// and no non-test type outside internal/obsv declares a [65] bucket array,
// the layout a second histogram starts with.
func TestOneInstrumentSet(t *testing.T) {
	if _, err := os.Stat(filepath.Join("..", "metrics")); err == nil {
		t.Error("internal/metrics exists: engines publish into obsv.Series and Metrics is Series.Snapshot")
	}
	rows := map[string]bool{}
	snap := reflect.TypeFor[obsv.Snapshot]()
	for _, in := range obsv.Instruments() {
		rows[in.Field] = true
		if in.Metric == "" || in.Help == "" {
			t.Errorf("instrument row %s has no Prometheus family", in.Field)
		}
	}
	series := reflect.TypeFor[obsv.Series]()
	instrument := map[reflect.Type]bool{
		reflect.TypeFor[obsv.Counter](): true, reflect.TypeFor[obsv.Gauge](): true, reflect.TypeFor[obsv.Hist](): true,
	}
	for i := 0; i < series.NumField(); i++ {
		f := series.Field(i)
		if !instrument[f.Type] {
			continue
		}
		if !rows[f.Name] {
			t.Errorf("obsv.Series.%s is in no row of the instrument table", f.Name)
		}
		if _, ok := snap.FieldByName(f.Name); !ok {
			t.Errorf("obsv.Series.%s has no obsv.Snapshot field of its name", f.Name)
		}
	}
	for _, in := range obsv.Instruments() {
		if f, _ := series.FieldByName(in.Field); instrument[f.Type] {
			if _, ok := snap.FieldByName(in.SnapshotField()); !ok {
				t.Errorf("instrument row %s fills no obsv.Snapshot field (%s)", in.Field, in.SnapshotField())
			}
		}
	}
	walkModule(t, func(rel string, f *ast.File) {
		if strings.HasSuffix(rel, "_test.go") || filepath.ToSlash(filepath.Dir(rel)) == "internal/obsv" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			ast.Inspect(ts.Type, func(n ast.Node) bool {
				if at, ok := n.(*ast.ArrayType); ok {
					if lit, ok := at.Len.(*ast.BasicLit); ok && lit.Value == "65" {
						t.Errorf("%s: type %s declares a [65] bucket array; the histogram is obsv.Hist", rel, ts.Name.Name)
					}
				}
				return true
			})
			return false
		})
	})
}

// TestOneLevee is the mechanical form of "one admission layer": the K-slack
// levee (kslack.Engine) is the only holder of a reorder buffer, so StrategyKSlack
// and a QuerySet admit, count, restamp and checkpoint through one copy of
// that code. No non-test source of the root module outside internal/kslack
// names kslack.Buffer in a type, calls kslack.NewBuffer, or reaches the
// buffer's restore or the restamp (kslack.RestoreBuffer, kslack.Restamp,
// which that package keeps unexported). The nested benchmark/ module, whose
// shadow times the bare buffer, is not part of the root module.
func TestOneLevee(t *testing.T) {
	walkModule(t, func(rel string, f *ast.File) {
		if strings.HasSuffix(rel, "_test.go") || filepath.ToSlash(filepath.Dir(rel)) == "internal/kslack" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				ast.Inspect(n.Type, func(m ast.Node) bool {
					if sel, ok := m.(*ast.SelectorExpr); ok && sel.Sel.Name == "Buffer" {
						if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "kslack" {
							t.Errorf("%s: type %s holds a kslack.Buffer; the levee is the one reorder buffer's holder", rel, n.Name.Name)
						}
					}
					return true
				})
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "kslack" {
					switch n.Sel.Name {
					case "NewBuffer", "RestoreBuffer", "Restamp":
						t.Errorf("%s uses kslack.%s: build a kslack.Engine (NewEngine, Restore) and let it hold the buffer", rel, n.Sel.Name)
					}
				}
			}
			return true
		})
	})
}

// TestOneDurablePath is the mechanical form of "every strategy checkpoints":
// recovery restores a checkpoint and replays the log suffix, whatever the
// strategy. No non-test code outside internal/runtime (the supervisor, whose
// state is its store) refuses a checkpoint with engine.ErrNoCheckpoint, and
// the capability checks that chose a WAL-only path — Config.restorable,
// Supervisor.canSnapshot — stay deleted.
//
// One envelope: outside the envelope's file (internal/engine/durable.go) and
// the write-ahead log's record frame (internal/recovery/wal.go), no non-test
// source calls hash/crc32 or declares a checkpoint magic (a [6]byte literal,
// or a six-letter "OO…" string), and no Checkpoint method buffers its inner
// engine's checkpoint (a bytes.Buffer or strings.Builder): each layer writes
// its section and hands the same writer down.
//
// One layout: durable.go declares exactly one magic, and no non-test source
// names the parts of a partitioned checkpoint (Sections.Parts, Keyless,
// CountKeyless) or merges them (an absorb method on a checkpoint record).
func TestOneDurablePath(t *testing.T) {
	magic := regexp.MustCompile(`^"OO[A-Z]{4}`)
	magics := 0
	walkModule(t, func(rel string, f *ast.File) {
		if strings.HasSuffix(rel, "_test.go") {
			return
		}
		durable := rel == "internal/engine/durable.go"
		framing := durable || rel == "internal/recovery/wal.go"
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if n.Name == "Parts" || n.Name == "Keyless" || n.Name == "CountKeyless" {
					t.Errorf("%s names %s: a checkpoint is one engine's, in one part", rel, n.Name)
				}
			case *ast.SelectorExpr:
				if n.Sel.Name == "ErrNoCheckpoint" && filepath.ToSlash(filepath.Dir(rel)) != "internal/runtime" {
					t.Errorf("%s refuses a checkpoint with ErrNoCheckpoint: every strategy checkpoints, only the supervisor refuses", rel)
				}
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "crc32" && !framing {
					t.Errorf("%s calls crc32.%s: one envelope checksums a checkpoint (internal/engine/durable.go)", rel, n.Sel.Name)
				}
			case *ast.CompositeLit:
				if at, ok := n.Type.(*ast.ArrayType); ok && !framing {
					if l, ok := at.Len.(*ast.BasicLit); ok && l.Value == "6" {
						t.Errorf("%s declares a [6]byte literal: the checkpoint magic lives in internal/engine/durable.go", rel)
					}
				} else if ok && durable && at.Len != nil {
					magics++
				}
			case *ast.BasicLit:
				if magic.MatchString(n.Value) && !framing {
					t.Errorf("%s declares the magic %s: the checkpoint magic lives in internal/engine/durable.go", rel, n.Value)
				} else if magic.MatchString(n.Value) && durable {
					magics++
				}
			case *ast.FuncDecl:
				if name := n.Name.Name; name == "restorable" || name == "canSnapshot" {
					t.Errorf("%s declares %s: there is one durable path, no capability to check", rel, name)
				}
				if n.Recv != nil && n.Name.Name == "absorb" && strings.Contains(strings.ToLower(types.ExprString(n.Recv.List[0].Type)), "checkpoint") {
					t.Errorf("%s declares %s.absorb: a checkpoint is one engine's, nothing merges parts", rel, types.ExprString(n.Recv.List[0].Type))
				}
				if n.Recv != nil && n.Name.Name == "Checkpoint" && n.Body != nil {
					ast.Inspect(n.Body, func(m ast.Node) bool {
						if sel, ok := m.(*ast.SelectorExpr); ok {
							if pkg, ok := sel.X.(*ast.Ident); ok && (pkg.Name == "bytes" && sel.Sel.Name == "Buffer" || pkg.Name == "strings" && sel.Sel.Name == "Builder") {
								t.Errorf("%s: a Checkpoint method buffers in a %s.%s: each layer writes its section to the writer it is handed", rel, pkg.Name, sel.Sel.Name)
							}
						}
						return true
					})
				}
			}
			return true
		})
	})
	if magics != 1 {
		t.Errorf("internal/engine/durable.go declares %d checkpoint magics, want the one envelope's", magics)
	}
}

// TestOneJudgeOfLateness is the mechanical form of "the engine alone judges
// lateness": a durable engine sees what an in-memory one sees, less the
// duplicates of a Seq. The supervisor's admission bound and its settings
// stay deleted: no non-test source names EngineBound, AdmitPolicy,
// DeadLetter, EventsDropped or EventsDeadLettered, and internal/runtime
// reads no opts.K.
func TestOneJudgeOfLateness(t *testing.T) {
	gone := map[string]bool{"EngineBound": true, "AdmitPolicy": true, "DeadLetter": true, "EventsDropped": true, "EventsDeadLettered": true}
	walkModule(t, func(rel string, f *ast.File) {
		if strings.HasSuffix(rel, "_test.go") {
			return
		}
		runtime := filepath.ToSlash(filepath.Dir(rel)) == "internal/runtime"
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if gone[n.Name] {
					t.Errorf("%s names %s: lateness is the engine's to judge, and admission only deduplicates", rel, n.Name)
				}
			case *ast.SelectorExpr:
				// opts.K or s.opts.K
				opts, _ := n.X.(*ast.Ident)
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					opts = sel.Sel
				}
				if runtime && n.Sel.Name == "K" && opts != nil && opts.Name == "opts" {
					t.Errorf("%s reads opts.K: the supervisor keeps no disorder bound of its own", rel)
				}
			}
			return true
		})
	})
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

// TestOneNameTable is the mechanical form of "one name table": the decoder
// and the compiler take every attribute name from internal/event's table, so
// a lookup finds a name by its address. No non-test source outside
// internal/event keeps a name-interning map (a file that names a
// map[string]string type and stores a key as its own value, m[k] = k) or
// declares an intern function, event.ParseJSON takes only the line (no
// caller's intern function), and the one non-test source that imports
// unsafe is the internal/event file that holds AttrList.Get.
func TestOneNameTable(t *testing.T) {
	interning := 0 // interning maps inside internal/event: the table's own
	var getFile string
	var unsafeFiles []string
	isString := func(e ast.Expr) bool { id, ok := e.(*ast.Ident); return ok && id.Name == "string" }
	walkModule(t, func(rel string, f *ast.File) {
		if strings.HasSuffix(rel, "_test.go") {
			return
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		for _, imp := range f.Imports {
			if target, _ := strconv.Unquote(imp.Path.Value); target == "unsafe" {
				unsafeFiles = append(unsafeFiles, rel)
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			switch {
			case dir == "internal/event" && fn.Recv != nil && fn.Name.Name == "Get":
				getFile = rel
			case dir == "internal/event" && fn.Recv == nil && fn.Name.Name == "ParseJSON":
				if n := fn.Type.Params.NumFields(); n != 1 {
					t.Errorf("%s: event.ParseJSON takes %d arguments; names come from the table, not from a caller's intern function", rel, n)
				}
			case dir != "internal/event" && strings.HasPrefix(strings.ToLower(fn.Name.Name), "intern"):
				t.Errorf("%s: func %s: a second name table; take names from event.Intern", rel, fn.Name.Name)
			}
		}
		var stringMap bool
		var identityStores []string
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.MapType:
				stringMap = stringMap || isString(n.Key) && isString(n.Value)
			case *ast.AssignStmt:
				if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
					break
				}
				if idx, ok := n.Lhs[0].(*ast.IndexExpr); ok && types.ExprString(idx.Index) == types.ExprString(n.Rhs[0]) {
					identityStores = append(identityStores, types.ExprString(n.Lhs[0]))
				}
			}
			return true
		})
		switch {
		case !stringMap || len(identityStores) == 0:
		case dir == "internal/event":
			interning++
		default:
			t.Errorf("%s: %v is a name-interning map; take names from event.Intern", rel, identityStores)
		}
	})
	if interning != 1 {
		t.Errorf("internal/event has %d files with a name-interning map, want the table's one: otherwise the walk checks nothing", interning)
	}
	if getFile == "" {
		t.Fatal("no AttrList.Get in internal/event: the walk checks nothing")
	}
	for _, rel := range unsafeFiles {
		if rel != getFile {
			t.Errorf("%s imports unsafe: only %s, which holds AttrList.Get, may", rel, getFile)
		}
	}
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

// census names, for every settable value of the library and its commands,
// what reads it: the reason the value exists. Keys are Config.<Field> (and
// QuerySetConfig, SupervisorConfig, Latency, LatencySLO, and the Adaptive,
// SLO and Limits blocks of internal/adaptive), a Strategy constant, or
// "<command> -<flag>". A reader is one of
//
//	experiment E<n>  cited in the claim table at the foot of EXPERIMENTS.md,
//	                 and a file declaring E<n>… (internal/bench) or
//	                 BenchmarkE<n>… (its tests, the root tests) names the value
//	workload <name>  a BENCHMARK.json workload; benchmark/workloads.go names
//	                 the value
//	example <dir>    examples/<dir>/main.go names the value
//	flag <cmd> -<f>  a flag in this census whose main.go names the value, or
//	                 the JSON block the flag decodes into
//	ci               (flags) a step of .github/workflows/ci.yml runs the
//	                 command with the flag
//	benchmark        (flags) a benchmark/ source builds the command and
//	                 passes the flag
//	deployment: …    (supervisor settings and flags) a path or a durability
//	                 trade that only the deployment can choose, stated
var census = map[string]string{
	"Config.Strategy":          "workload rfid-seq-native",
	"Config.K":                 "workload rfid-seq-native",
	"Config.DisableTriggerOpt": "experiment E7",
	"Config.PurgeEvery":        "experiment E6",
	"Config.Provenance":        "flag esprun -explain",
	"Config.Observer":          "flag esprun -listen",
	"Config.Trace":             "flag esprun -listen",
	"Config.Latency":           "flag esprun -latency-sample",
	"Config.Adaptive":          "experiment E20",
	"Latency.SampleEvery":      "flag esprun -latency-sample",
	"Latency.SLO":              "flag esprun -latency-slo",
	"LatencySLO.Objective":     "flag esprun -latency-slo",
	"LatencySLO.Target":        "flag esprun -latency-slo-target",
	"Adaptive.Enabled":         "experiment E20",
	"Adaptive.Quantile":        "experiment E20",
	"Adaptive.Margin":          "experiment E20",
	"Adaptive.MinK":            "experiment E20",
	"Adaptive.DecisionEvery":   "experiment E20",
	"Adaptive.ShrinkAfter":     "experiment E20",
	"Adaptive.SLO":             "experiment E20",
	"Adaptive.Limits":          "flag esprun -limits",
	"SLO.MaxLatency":           "experiment E20",
	"SLO.MaxRetractionRate":    "flag esprun -slo",
	"Limits.MaxBufferedEvents": "flag esprun -limits",
	"Limits.MaxLag":            "flag esprun -limits",

	"QuerySetConfig.K":          "experiment E19",
	"QuerySetConfig.Provenance": "flag esprun -explain",
	"QuerySetConfig.Observer":   "flag esprun -listen",
	"QuerySetConfig.Trace":      "flag esprun -listen",
	"QuerySetConfig.Latency":    "flag esprun -latency-sample",

	"SupervisorConfig.Dir":             "flag esprun -checkpoint-dir",
	"SupervisorConfig.CheckpointEvery": "flag esprun -checkpoint-every",
	"SupervisorConfig.DisableFsync":    "experiment E15",
	"SupervisorConfig.Retain":          "deployment: how many checkpoints the disk keeps",
	"SupervisorConfig.SyncEveryEvent":  "deployment: fsync per event, the durability of the log's tail",

	"StrategyNative":    "workload rfid-seq-native",
	"StrategyKSlack":    "workload rfid-neg-kslack",
	"StrategySpeculate": "workload rfid-neg-speculate",
	"StrategyHybrid":    "experiment E20",

	"espbench -scale":          "ci",
	"espbench -exp":            "ci",
	"espbench -cpuprofile":     "deployment: where a profile is written",
	"espbench -memprofile":     "deployment: where a profile is written",
	"espfuzz -budget":          "ci",
	"espfuzz -seed":            "ci",
	"espfuzz -mode":            "ci",
	"espexplain -state":        "ci",
	"espexplain -flight":       "ci",
	"espexplain -match":        "ci",
	"espexplain -event":        "ci",
	"espgen -n":                "ci",
	"espgen -ooo":              "ci",
	"espgen -k":                "ci",
	"espgen -out":              "deployment: where the trace is written",
	"esprun -query":            "benchmark",
	"esprun -trace":            "benchmark",
	"esprun -strategy":         "benchmark",
	"esprun -k":                "benchmark",
	"esprun -max-print":        "benchmark",
	"esprun -quiet":            "ci",
	"esprun -explain":          "ci",
	"esprun -plan":             "ci",
	"esprun -listen":           "ci",
	"esprun -linger":           "ci",
	"esprun -batch":            "ci",
	"esprun -latency-sample":   "ci",
	"esprun -latency-slo":      "ci",
	"esprun -checkpoint-dir":   "deployment: where durable state lives",
	"esprun -checkpoint-every": "deployment: the checkpoint interval, recovery time against throughput",
	"esprun -resume":           "deployment: continuing a killed run",
}

// unread lists the settable values nothing above reads yet, each with why it
// stays and the ROADMAP item that owes its verdict. Each verdict is a
// one-line edit: a reader in census, or the value deleted. The list may
// shrink and not grow (maxUnread is its length; lower it as rows go).
var unread = map[string]string{
	"QuerySetConfig.AdvanceEvery": "a sealing cadence that never changes output, set by tests only; ROADMAP 3, judged on 1(d)'s multi-100",

	"espfuzz -trials":  "local soak controls (bounds, quiet, live progress); ROADMAP 7(c) puts every soak in CI",
	"espfuzz -maxfail": "local soak controls (bounds, quiet, live progress); ROADMAP 7(c) puts every soak in CI",
	"espfuzz -q":       "local soak controls (bounds, quiet, live progress); ROADMAP 7(c) puts every soak in CI",
	"espfuzz -listen":  "local soak controls (bounds, quiet, live progress); ROADMAP 7(c) puts every soak in CI",

	"espgen -workload": "CI generates only the default RFID trace; ROADMAP 1(d) adds the workloads",
	"espgen -seed":     "CI generates only the default RFID trace; ROADMAP 1(d) adds the workloads",
	"espgen -net":      "network-derived disorder, measured by E12 through internal/bench; ROADMAP 1(d) drift-hybrid",
	"espgen -sources":  "network-derived disorder, measured by E12 through internal/bench; ROADMAP 1(d) drift-hybrid",
	"espgen -mtbf":     "network-derived disorder, measured by E12 through internal/bench; ROADMAP 1(d) drift-hybrid",
	"espgen -outage":   "network-derived disorder, measured by E12 through internal/bench; ROADMAP 1(d) drift-hybrid",

	"esprun -query-file":         "no step reads a query from a file; ROADMAP 3",
	"esprun -queries":            "the multi-query CLI; ROADMAP 1(d)'s multi-100 drives it",
	"esprun -adaptive":           "the controller end to end; ROADMAP 1(d)'s drift-hybrid drives it",
	"esprun -adaptive-config":    "the controller end to end; ROADMAP 1(d)'s drift-hybrid drives it",
	"esprun -slo":                "the controller end to end; ROADMAP 1(d)'s drift-hybrid drives it",
	"esprun -limits":             "the controller end to end; ROADMAP 1(d)'s drift-hybrid drives it",
	"esprun -latency-slo-target": "ROADMAP 8(d) measures the instruments together",
}

const maxUnread = 18

// docCaps are the line counts the three documents a newcomer reads may not
// exceed (ROADMAP 9). Like maxUnread, a cap may be lowered and never
// raised: a change that writes an E-section pays for it by trimming
// elsewhere.
var docCaps = map[string]int{"DESIGN.md": 1600, "EXPERIMENTS.md": 1581, "README.md": 774}

// difftestCap is the line count internal/difftest's non-test Go may not
// exceed: the differential harness is one drive function over compositions
// (ROADMAP 16), and like docCaps the cap may be lowered and never raised.
const difftestCap = 2031

// TestDifftestOnlyShrinks holds internal/difftest's non-test Go to
// difftestCap lines.
func TestDifftestOnlyShrinks(t *testing.T) {
	names, err := filepath.Glob(filepath.Join("..", "difftest", "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no internal/difftest sources (%v)", err)
	}
	lines := 0
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines += strings.Count(string(data), "\n")
	}
	if lines > difftestCap {
		t.Errorf("internal/difftest has %d non-test lines, at most %d: the harness only shrinks", lines, difftestCap)
	}
}

// TestDocsOnlyShrink holds DESIGN.md, EXPERIMENTS.md and README.md to their
// caps.
func TestDocsOnlyShrink(t *testing.T) {
	for name, limit := range docCaps {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(data), "\n"); n > limit {
			t.Errorf("%s has %d lines, at most %d: the documents only shrink", name, n, limit)
		}
	}
}

// TestSystemsTableNamesEveryPackage holds DESIGN.md §2, the systems table,
// to the tree: every internal/ directory holding non-test Go is named in it
// (as `internal/<dir>`, or one of its files), so a package cannot be added
// without a row saying what it is for.
func TestSystemsTableNamesEveryPackage(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(data), "\n## 2. ")
	table, _, _ = strings.Cut(table, "\n## 3. ")
	dirs := map[string]bool{}
	walkModule(t, func(rel string, f *ast.File) {
		if dir := filepath.ToSlash(filepath.Dir(rel)); strings.HasPrefix(dir, "internal/") && !strings.HasSuffix(rel, "_test.go") {
			dirs[dir] = true
		}
	})
	if len(dirs) < 20 {
		t.Fatalf("found %d internal packages: the walk checks too little", len(dirs))
	}
	for dir := range dirs {
		named := regexp.MustCompile(regexp.QuoteMeta(dir) + "(`|/[a-z_]+\\.go`)")
		if !named.MatchString(table) {
			t.Errorf("DESIGN.md §2 names no %s: give it a row of the systems table", dir)
		}
	}
}

// TestEverySettableValueHasAReader is the census gate (ROADMAP item 3): it
// finds every settable value in the tree (struct fields and constants by
// AST, flags by their fs.<Kind>("name", default, usage) definitions), and
// each must have a row in census whose reader exists, or in unread, and not
// both. A row for a value that is gone fails too.
func TestEverySettableValueHasAReader(t *testing.T) {
	// The configuration structs by package directory and type name, under
	// the name the census uses.
	structs := map[[2]string]string{
		{".", "Config"}: "Config", {".", "QuerySetConfig"}: "QuerySetConfig", {".", "SupervisorConfig"}: "SupervisorConfig",
		{".", "Latency"}: "Latency", {".", "LatencySLO"}: "LatencySLO",
		{"internal/adaptive", "Config"}: "Adaptive", {"internal/adaptive", "SLO"}: "SLO", {"internal/adaptive", "Limits"}: "Limits",
	}
	flagKinds := map[string]bool{"String": true, "Int": true, "Int64": true, "Uint64": true, "Bool": true, "Float64": true, "Duration": true}
	type value struct {
		ident string // the identifier a reader's source must hold
		block string // the JSON-decoded struct the value sits in, or ""
	}
	values := map[string]value{}
	idents := map[string]map[string]bool{} // file -> identifiers it holds
	declares := map[string][]string{}      // experiment ID -> the files declaring it
	experimentFunc := regexp.MustCompile(`^(?:Benchmark)?(E\d+)[A-Z]`)
	walkModule(t, func(rel string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(rel))
		idents[rel] = identsOf(f)
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && (dir == "internal/bench" || dir == ".") {
				if m := experimentFunc.FindStringSubmatch(fn.Name.Name); m != nil {
					declares[m[1]] = append(declares[m[1]], rel)
				}
			}
			gd, ok := decl.(*ast.GenDecl)
			if !ok || strings.HasSuffix(rel, "_test.go") {
				continue
			}
			for _, spec := range gd.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					name, ok := structs[[2]string{dir, spec.Name.Name}]
					st, isStruct := spec.Type.(*ast.StructType)
					if !ok || !isStruct {
						continue
					}
					for _, field := range st.Fields.List {
						block := ""
						if field.Tag != nil && strings.Contains(field.Tag.Value, "json:") {
							block = name
						}
						for _, id := range field.Names {
							if id.IsExported() {
								values[name+"."+id.Name] = value{id.Name, block}
							}
						}
					}
				case *ast.ValueSpec:
					if dir != "." || gd.Tok != token.CONST {
						continue
					}
					typ, _ := spec.Type.(*ast.Ident)
					for _, id := range spec.Names {
						if typ != nil && typ.Name == "Strategy" {
							values[id.Name] = value{ident: id.Name}
						}
					}
				}
			}
		}
		if cmd, ok := strings.CutPrefix(dir, "cmd/"); ok && !strings.HasSuffix(rel, "_test.go") {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 3 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				lit, isLit := call.Args[0].(*ast.BasicLit)
				if ok && isLit && flagKinds[sel.Sel.Name] && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					values[cmd+" -"+name] = value{}
				}
				return true
			})
		}
	})
	for _, want := range []string{"Config.K", "Adaptive.Quantile", "StrategyNative", "esprun -k"} {
		if _, ok := values[want]; !ok {
			t.Fatalf("the walk found no %s: the census checks nothing", want)
		}
	}

	root := filepath.Join("..", "..")
	read := func(name string) string {
		data, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	_, claims, _ := strings.Cut(read("EXPERIMENTS.md"), "## Summary of claim verification")
	cited := map[string]bool{}
	for _, id := range regexp.MustCompile(`\bE\d+\b`).FindAllString(claims, -1) {
		cited[id] = true
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal([]byte(read("BENCHMARK.json")), &bench); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	ciSteps := strings.Split(strings.ReplaceAll(read(".github/workflows/ci.yml"), "\\\n", " "), "\n")
	benchSources, err := filepath.Glob(filepath.Join(root, "benchmark", "*.go"))
	if err != nil || len(benchSources) == 0 {
		t.Fatalf("no benchmark/ sources: %v", err)
	}
	names := func(file string, v value) bool {
		ids, ok := idents[file]
		if !ok { // outside the module walk: benchmark/
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, file), nil, parser.SkipObjectResolution)
			if err == nil {
				ids = identsOf(f)
			}
			idents[file] = ids
		}
		return ids[v.ident] || (v.block != "" && ids[v.block])
	}

	// check reports why reader does not read key, or "".
	check := func(key string, v value, reader string) string {
		kind, arg, _ := strings.Cut(reader, " ")
		cmd, flag, isFlag := strings.Cut(key, " ")
		switch kind {
		case "experiment":
			if !cited[arg] {
				return arg + " is not cited in EXPERIMENTS.md's claim table"
			}
			if !slices.ContainsFunc(declares[arg], func(file string) bool { return names(file, v) }) {
				return fmt.Sprintf("no declaration of %s in a file naming %s", arg, v.ident)
			}
		case "workload":
			if !workloads[arg] {
				return arg + " is not a BENCHMARK.json workload"
			}
			if !names("benchmark/workloads.go", v) {
				return "benchmark/workloads.go does not name " + v.ident
			}
		case "example":
			if !names("examples/"+arg+"/main.go", v) {
				return "examples/" + arg + "/main.go does not name " + v.ident
			}
		case "flag":
			owner, _, _ := strings.Cut(arg, " ")
			if _, ok := values[arg]; !ok {
				return arg + " is not a flag"
			}
			if !names("cmd/"+owner+"/main.go", v) {
				return fmt.Sprintf("cmd/%s/main.go names neither %s nor %s", owner, v.ident, v.block)
			}
		case "ci":
			passed := regexp.MustCompile(`(^|\s)` + regexp.QuoteMeta(flag) + `(\s|=|$)`)
			if !isFlag || !slices.ContainsFunc(ciSteps, func(line string) bool {
				return strings.Contains(line, "cmd/"+cmd) && passed.MatchString(line)
			}) {
				return "no ci.yml step runs cmd/" + cmd + " with " + flag
			}
		case "benchmark":
			found := false
			for _, src := range benchSources {
				data, err := os.ReadFile(src)
				found = found || (err == nil && isFlag && strings.Contains(string(data), `"oostream/cmd/`+cmd+`"`) &&
					strings.Contains(string(data), strconv.Quote(flag)))
			}
			if !found {
				return "no benchmark/ source builds cmd/" + cmd + " and passes " + flag
			}
		case "deployment:":
			if !isFlag && !strings.HasPrefix(key, "SupervisorConfig.") {
				return "only supervisor settings and flags are a deployment's to choose"
			}
		default:
			return "unknown reader kind " + kind
		}
		return ""
	}

	for key, v := range values {
		reader, listed := census[key]
		why, allowed := unread[key]
		switch {
		case listed && allowed:
			t.Errorf("%s has a reader (%s) and is listed unread (%s): drop it from unread", key, reader, why)
		case listed:
			if msg := check(key, v, reader); msg != "" {
				t.Errorf("%s: reader %q: %s", key, reader, msg)
			}
		case !allowed:
			t.Errorf("%s is settable and nothing reads it: name its reader in census (an experiment of the claim table, a workload, an example, a flag, a CI step) or delete it", key)
		}
	}
	for _, m := range []map[string]string{census, unread} {
		for key := range m {
			if _, ok := values[key]; !ok {
				t.Errorf("%s is in the census but not in the tree: drop its row", key)
			}
		}
	}
	if len(unread) > maxUnread {
		t.Errorf("%d unread values, at most %d: the list only shrinks", len(unread), maxUnread)
	}
}

// TestOneImplementationPerExperiment holds every experiment of the harness
// to one implementation and one timing loop: the root module declares no
// BenchmarkE<n> for an ID bench.All() runs (its implementation is the
// internal/bench table cmd/espbench prints), and no non-test internal/bench
// code reads the clock outside timeSides, the one routine that times the
// compared sides in alternation.
func TestOneImplementationPerExperiment(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range bench.All() {
		ids[e.ID] = true
	}
	benchmarkE := regexp.MustCompile(`^Benchmark(E\d+)`)
	routine := false
	walkModule(t, func(rel string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(rel))
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			if dir == "." && fn != nil {
				if m := benchmarkE.FindStringSubmatch(fn.Name.Name); m != nil && ids[m[1]] {
					t.Errorf("%s declares %s: %s is implemented once, as the internal/bench table", rel, fn.Name.Name, m[1])
				}
			}
			if dir != "internal/bench" || strings.HasSuffix(rel, "_test.go") {
				continue
			}
			if fn != nil && fn.Name.Name == "timeSides" {
				routine = true
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
					where := "a package-level declaration"
					if fn != nil {
						where = fn.Name.Name
					}
					t.Errorf("%s: %s calls time.%s: internal/bench times only through timeSides", rel, where, sel.Sel.Name)
				}
				return true
			})
		}
	})
	if !routine {
		t.Error("internal/bench declares no timeSides: the gate checks nothing")
	}
}

// identsOf returns every identifier f holds: names declared, used, selected
// and used as composite-literal keys.
func identsOf(f *ast.File) map[string]bool {
	ids := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			ids[id.Name] = true
		}
		return true
	})
	return ids
}
