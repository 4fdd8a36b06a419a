package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a scratch repo for the checker to walk.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		full := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestChecksCatchDrift(t *testing.T) {
	root := writeTree(t, map[string]string{
		"Makefile": "all: build\nbuild:\n\ttrue\n",
		"cmd/demo/main.go": `package main
import "flag"
func main() {
	_ = flag.String("listen", "", "")
	_ = flag.Int("nodes", 4, "")
}`,
		"internal/server/http.go": `package server
func (s *Server) routes() {
	s.route("GET", "/v1/nodes", s.handleNodes)
	s.route("GET", "/v1/state/{node}", s.handleState)
	s.route("POST", "/v1/query", s.handleQuery)
}`,
		"internal/server/doc.go": "package server\n",
		"docs/good.md": "See [the readme](../README.md); `cmd/demo` serves **internal/server** (`internal/server/http.go`).\n" +
			"Read `GET /v1/nodes`, `GET /v1/state/{node}?t=...` or `GET /v1/state/n1`; ask `POST /v1/query`.\n" +
			"```sh\ngo run ./cmd/demo -listen :8080 \\\n    -nodes 9\nmake build\n```\n",
		"README.md": "hello [docs](docs/good.md)\n",
		"docs/bad.md": "A [broken link](missing.md).\n" +
			"Once there was `GET /state/{node}?t=...`, and `GET /v1/query` is a POST.\n" +
			"**internal/ghostpkg / internal/server** kept snapshots for `cmd/ghost`; internal/prose and `internal/{a,b}` are not paths.\n" +
			"```sh\ngo run ./cmd/demo -port 80\ngo run ./cmd/ghost\nmake deploy\n```\n",
	})

	if got := checkFile(root, filepath.Join(root, "docs", "good.md")); len(got) != 0 {
		t.Fatalf("good.md flagged: %v", got)
	}
	if got := checkFile(root, filepath.Join(root, "README.md")); len(got) != 0 {
		t.Fatalf("README.md flagged: %v", got)
	}

	got := checkFile(root, filepath.Join(root, "docs", "bad.md"))
	want := []string{"broken link", "GET /state/{node}: no such route", "GET /v1/query: no such route",
		"internal/ghostpkg: no such directory", "cmd/ghost: no such directory", "flag -port", "no such package directory", "make deploy"}
	if len(got) != len(want) {
		t.Fatalf("bad.md: got %d problems %v, want %d", len(got), got, len(want))
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Fatalf("problem %d = %q, want mention of %q", i, got[i], w)
		}
	}
}

// TestFlagsDeclaredThroughACall: a flag declared inside a function of
// the module counts for exactly the commands that call that function.
func TestFlagsDeclaredThroughACall(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module demo\n\ngo 1.24\n",
		"internal/srv/flags.go": `package srv
import "flag"
func Declare() *string { return flag.String("listen", "", "") }
func Other() *bool     { return flag.Bool("ghost", false, "") }`,
		"cmd/caller/main.go": `package main
import (
	"flag"
	s "demo/internal/srv"
)
func main() {
	_ = s.Declare()
	_ = flag.Int("nodes", 4, "")
}`,
		"cmd/importer/main.go": `package main
import (
	"flag"
	"demo/internal/srv"
)
var _ = srv.Declare
func main() { _ = flag.Int("nodes", 4, "") }`,
		"docs/run.md": "```sh\ngo run ./cmd/caller -listen :0 -nodes 9 -ghost\ngo run ./cmd/importer -listen :0\n```\n",
	})
	got := checkFile(root, filepath.Join(root, "docs", "run.md"))
	want := []string{"./cmd/caller: flag -ghost", "./cmd/importer: flag -listen"}
	if len(got) != len(want) {
		t.Fatalf("got %d problems %v, want %d", len(got), got, len(want))
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Fatalf("problem %d = %q, want mention of %q", i, got[i], w)
		}
	}
}

// TestRepoDocsAreClean runs the real checks over the repository's own
// README and docs — the same gate `make docs-check` applies in CI.
func TestRepoDocsAreClean(t *testing.T) {
	root := "../.."
	var problems []string
	for _, p := range []string{"README.md", "docs"} {
		st, err := os.Stat(filepath.Join(root, p))
		if err != nil {
			t.Fatal(err)
		}
		if st.IsDir() {
			ents, err := os.ReadDir(filepath.Join(root, p))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if strings.HasSuffix(e.Name(), ".md") {
					problems = append(problems, checkFile(root, filepath.Join(root, p, e.Name()))...)
				}
			}
		} else {
			problems = append(problems, checkFile(root, filepath.Join(root, p))...)
		}
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestUndefinedMetricNamed: a backticked metric of a layer BENCHMARK.json
// measures must be one it defines; other layers, Go identifiers, file
// names and fenced code are not metrics.
func TestUndefinedMetricNamed(t *testing.T) {
	root := writeTree(t, map[string]string{
		"BENCHMARK.json": `{"per_layer": [{"name": "engine.converge_s"}, {"name": "server.http_ms"}]}`,
		"docs/m.md": "`engine.converge_s` and `server.http_ms` are measured; `engine.epochs_s` is not.\n" +
			"`gateway.hops_per_query`, `server.Server`, `engine.go` and `server.http_ms.x` name no metric.\n" +
			"```\n`server.render_ms`\n```\n",
	})
	got := checkFile(root, filepath.Join(root, "docs", "m.md"))
	if len(got) != 1 || !strings.Contains(got[0], "m.md:1: engine.epochs_s: no such per-layer metric") {
		t.Fatalf("got %v, want one problem naming engine.epochs_s on line 1", got)
	}
}

// TestDocsBudget: docs/*.md together may fill the budget, not exceed it.
func TestDocsBudget(t *testing.T) {
	half := strings.Repeat("x", docsBudget/2)
	root := writeTree(t, map[string]string{"docs/a.md": half, "docs/b.md": half, "docs/c.txt": "not a doc"})
	if got := checkBudget(root); len(got) != 0 {
		t.Fatalf("docs at the budget flagged: %v", got)
	}
	root = writeTree(t, map[string]string{"docs/a.md": half, "docs/b.md": half + "x"})
	if got := checkBudget(root); len(got) != 1 || !strings.Contains(got[0], "over the 110000-byte budget") {
		t.Fatalf("docs over the budget: got %v", got)
	}
	if got := checkBudget("../.."); len(got) != 0 {
		t.Fatalf("the repository's docs: %v", got)
	}
}
