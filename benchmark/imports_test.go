package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// The benchmark measures the program from outside, through what each layer
// exports, and must keep compiling while other changes reshape the
// packages around it. So it may import only the serving stack's layers,
// and it may not touch the fault-injection hooks of their option structs,
// which are slated for deletion.
func TestImportsAndHooksStayWithinTheAllowList(t *testing.T) {
	allowed := map[string]bool{}
	for _, p := range []string{"kv", "server", "nvclient", "proto", "mdb", "atlas", "pmem", "core", "trace"} {
		allowed["nvmcache/internal/"+p] = true
	}
	hooks := map[string]bool{}
	for _, h := range []string{"WrapSink", "UndoHook", "AckHook", "AbsorbHook", "CheckpointHook", "RecoverHook",
		"CrashBeforeCommit", "IsInjectedCrash", "Stall", "WrapConn"} {
		hooks[h] = true
	}

	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			files++
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if strings.HasPrefix(path, "nvmcache/") && !allowed[path] {
					t.Errorf("%s imports %s, which is not on the allow-list", name, path)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				var id *ast.Ident
				switch n := n.(type) {
				case *ast.SelectorExpr:
					id = n.Sel
				case *ast.KeyValueExpr:
					id, _ = n.Key.(*ast.Ident)
				}
				if id != nil && hooks[id.Name] {
					t.Errorf("%s uses the hook field %s", fset.Position(id.Pos()), id.Name)
				}
				return true
			})
		}
	}
	if files < 5 {
		t.Fatalf("parsed only %d files: the test is not looking at the benchmark's sources", files)
	}
}
