package engine_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneKernel is the mechanical form of "one out-of-order SSC kernel":
// only internal/core builds on the active instance stacks, there is one
// negative store, and the layers around the kernel (the reorder buffer, the
// policy switch) reach neither the deleted speculative engine's shim nor
// the in-order baseline. It parses the root module's sources; nested
// modules (benchmark/) are not part of it.
func TestOneKernel(t *testing.T) {
	root := filepath.Join("..", "..")
	negStores := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
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
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "negStore" {
				negStores++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if negStores != 1 {
		t.Errorf("found %d negStore types, want exactly one (internal/core)", negStores)
	}
}
