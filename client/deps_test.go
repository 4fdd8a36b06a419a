package client_test

import (
	"go/build"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestImportsOnlyStdlib: the SDK declares the v1 schema the servers
// render, so the dependency runs from the servers to the SDK. The SDK
// itself must stay importable on its own: no non-test file may import
// anything outside the standard library.
func TestImportsOnlyStdlib(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if pkg, err := build.Default.Import(path, "", build.FindOnly); err != nil || !pkg.Goroot {
				t.Errorf("%s imports %q, which is not in the standard library", name, path)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no SDK source files found")
	}
}
