// docscheck keeps the documentation honest: it walks the repo's
// operator-facing markdown (README.md plus docs/) and fails when the
// docs drift from the code they describe. Seven checks:
//
//   - relative markdown links must point at files that exist;
//   - `go run ./cmd/<name>` commands inside shell code fences must
//     name a real command, and every -flag they pass must be defined
//     by that command's flag set (its own declarations, plus those in
//     a function of this module it calls, such as the serving flags
//     internal/server declares for nettrailsd and nettrailsgw);
//   - `make <target>` commands must name a real Makefile target;
//   - every HTTP route named in running text as `GET /path` or
//     `POST /path` must be registered through s.route(...) in
//     internal/server/http.go (a {param} segment of the registered
//     pattern matches any one segment; a ?query suffix is ignored);
//   - a backticked or bold path that starts internal/<pkg>, cmd/<name>
//     or tools/<name> in running text must name a directory that exists;
//   - a backticked `layer.metric` name in running text whose layer has
//     a per-layer metric in BENCHMARK.json must be one BENCHMARK.json
//     defines;
//   - docs/*.md together must stay within docsBudget bytes.
//
// It is wired up as `make docs-check` and runs in CI, so a renamed
// flag, a deleted doc, a removed route, a deleted package, or a stale
// quickstart breaks the build instead of the next reader.
//
// Usage: docscheck [-root dir] [paths...]  (default: README.md docs)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

var (
	linkRe     = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	fenceRe    = regexp.MustCompile("^```")
	goRunRe    = regexp.MustCompile(`go run (\./[a-zA-Z0-9_/.-]+)`)
	makeRe     = regexp.MustCompile(`\bmake ([a-zA-Z0-9_.-]+)`)
	flagDefRe  = regexp.MustCompile(`flag\.[A-Za-z0-9]+\("([a-zA-Z0-9_.-]+)"`)
	flagUseRe  = regexp.MustCompile(`^-([a-zA-Z][a-zA-Z0-9_.-]*)`)
	moduleRe   = regexp.MustCompile(`(?m)^module\s+(\S+)`)
	targetRe   = regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+):`)
	routeUseRe = regexp.MustCompile("`(GET|POST) (/[^`\\s?]*)[^`]*`")
	routeDefRe = regexp.MustCompile(`s\.route\("([A-Z]+)", "([^"]+)"`)
	pkgPathRe  = regexp.MustCompile("(?:`|\\*\\*)((?:internal|cmd|tools)/[A-Za-z0-9_]+)")
	metricRe   = regexp.MustCompile("`([a-z]+)\\.([a-z][a-z0-9_]*)`")
)

// docsBudget is the byte budget of docs/*.md together.
const docsBudget = 110_000

func main() {
	root := flag.String("root", ".", "repository root the docs and commands resolve against")
	flag.Parse()
	paths := flag.Args()
	if len(paths) == 0 {
		paths = []string{"README.md", "docs"}
	}

	var files []string
	for _, p := range paths {
		full := filepath.Join(*root, p)
		st, err := os.Stat(full)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(1)
		}
		if st.IsDir() {
			ents, err := os.ReadDir(full)
			if err != nil {
				fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
				os.Exit(1)
			}
			for _, e := range ents {
				if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
					files = append(files, filepath.Join(full, e.Name()))
				}
			}
		} else {
			files = append(files, full)
		}
	}

	problems := checkBudget(*root)
	for _, f := range files {
		problems = append(problems, checkFile(*root, f)...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck: "+p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d file(s) clean\n", len(files))
}

// checkFile runs every check over one markdown file.
func checkFile(root, path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{err.Error()}
	}
	var problems []string
	add := func(line int, format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf("%s:%d: %s", path, line, fmt.Sprintf(format, args...)))
	}

	metrics, layers, err := benchMetrics(root)
	if err != nil {
		return []string{err.Error()}
	}
	lines := strings.Split(string(data), "\n")
	inFence := false
	for i, line := range lines {
		lineNo := i + 1
		if fenceRe.MatchString(strings.TrimSpace(line)) {
			inFence = !inFence
			continue
		}
		if !inFence {
			// Relative links must resolve.
			for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
					continue
				}
				if i := strings.IndexByte(target, '#'); i >= 0 {
					target = target[:i]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(path), target)
				if _, err := os.Stat(resolved); err != nil {
					add(lineNo, "broken link %q", m[1])
				}
			}
			// Named routes must be registered.
			for _, m := range routeUseRe.FindAllStringSubmatch(line, -1) {
				ok, err := routeRegistered(root, m[1], m[2])
				if err != nil {
					add(lineNo, "%v", err)
				} else if !ok {
					add(lineNo, "%s %s: no such route in internal/server/http.go", m[1], m[2])
				}
			}
			// Named packages, commands and tools must still be in the tree.
			for _, m := range pkgPathRe.FindAllStringSubmatch(line, -1) {
				if st, err := os.Stat(filepath.Join(root, m[1])); err != nil || !st.IsDir() {
					add(lineNo, "%s: no such directory", m[1])
				}
			}
			// Named per-layer metrics must be defined (a Go file name
			// such as engine.go is not a metric).
			for _, m := range metricRe.FindAllStringSubmatch(line, -1) {
				if layers[m[1]] && !metrics[m[1]+"."+m[2]] && m[2] != "go" {
					add(lineNo, "%s.%s: no such per-layer metric in BENCHMARK.json", m[1], m[2])
				}
			}
			continue
		}
		// Inside a code fence: join continuation lines, then check the
		// command-shaped ones.
		if i > 0 && strings.HasSuffix(strings.TrimSpace(lines[i-1]), "\\") {
			continue // already consumed by the joined command below
		}
		cmd := strings.TrimSpace(line)
		for j := i; strings.HasSuffix(cmd, "\\") && j+1 < len(lines); j++ {
			cmd = strings.TrimSuffix(cmd, "\\") + " " + strings.TrimSpace(lines[j+1])
		}
		problems = append(problems, checkCommand(root, path, lineNo, cmd)...)
	}
	return problems
}

// checkBudget reports docs/*.md when together they exceed docsBudget.
func checkBudget(root string) []string {
	files, _ := filepath.Glob(filepath.Join(root, "docs", "*.md")) // the pattern is well-formed
	var total int64
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			total += st.Size()
		}
	}
	if total > docsBudget {
		return []string{fmt.Sprintf("docs/*.md: %d bytes, over the %d-byte budget", total, docsBudget)}
	}
	return nil
}

// benchMetrics reads the per-layer metric names BENCHMARK.json defines
// and the layers they name; both are nil when root has no BENCHMARK.json.
func benchMetrics(root string) (metrics, layers map[string]bool, err error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err == nil {
		err = json.Unmarshal(data, &bench)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	metrics, layers = map[string]bool{}, map[string]bool{}
	for _, m := range bench.PerLayer {
		metrics[m.Name] = true
		layer, _, _ := strings.Cut(m.Name, ".")
		layers[layer] = true
	}
	return metrics, layers, nil
}

// checkCommand validates one joined shell command from a code fence.
func checkCommand(root, path string, lineNo int, cmd string) []string {
	var problems []string
	add := func(format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf("%s:%d: %s", path, lineNo, fmt.Sprintf(format, args...)))
	}

	if m := goRunRe.FindStringSubmatch(cmd); m != nil {
		pkg := m[1]
		dir := filepath.Join(root, pkg)
		if _, err := os.Stat(dir); err != nil {
			add("go run %s: no such package directory", pkg)
			return problems
		}
		defined, err := definedFlags(root, dir)
		if err != nil {
			add("go run %s: %v", pkg, err)
			return problems
		}
		if defined == nil {
			return problems // not a main package with flags (e.g. examples)
		}
		rest := cmd[strings.Index(cmd, pkg)+len(pkg):]
		for _, tok := range strings.Fields(rest) {
			fm := flagUseRe.FindStringSubmatch(tok)
			if fm == nil {
				continue
			}
			name := fm[1]
			if i := strings.IndexByte(name, '='); i >= 0 {
				name = name[:i]
			}
			if !defined[name] {
				add("go run %s: flag -%s is not defined by %s", pkg, name, pkg)
			}
		}
	}

	for _, m := range makeRe.FindAllStringSubmatch(cmd, -1) {
		target := m[1]
		ok, err := makefileHasTarget(root, target)
		if err != nil {
			add("%v", err)
		} else if !ok {
			add("make %s: no such Makefile target", target)
		}
	}
	return problems
}

// definedFlags collects the flag names a command's package registers:
// its own declarations, plus those inside a function of one of this
// module's packages that it calls (internal/server.DeclareServeFlags);
// nil (no error) when it defines no flags at all.
func definedFlags(root, dir string) (map[string]bool, error) {
	files, err := parseDir(dir)
	if err != nil {
		return nil, err
	}
	module := ""
	if mod, err := os.ReadFile(filepath.Join(root, "go.mod")); err == nil {
		if m := moduleRe.FindSubmatch(mod); m != nil {
			module = string(m[1]) + "/"
		}
	}
	var defined map[string]bool
	collect := func(src []byte) {
		for _, m := range flagDefRe.FindAllSubmatch(src, -1) {
			if defined == nil {
				defined = map[string]bool{}
			}
			defined[string(m[1])] = true
		}
	}
	for _, f := range files {
		collect(f.src)
		local := map[string]string{} // import name -> package directory
		for _, im := range f.ast.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			if module == "" || !strings.HasPrefix(path, module) {
				continue
			}
			name := path[strings.LastIndex(path, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			local[name] = filepath.Join(root, strings.TrimPrefix(path, module))
		}
		var calls [][2]string // package directory, function name
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && local[id.Name] != "" {
						calls = append(calls, [2]string{local[id.Name], sel.Sel.Name})
					}
				}
			}
			return true
		})
		for _, c := range calls {
			deps, err := parseDir(c[0])
			if err != nil {
				return nil, err
			}
			for _, dep := range deps {
				for _, d := range dep.ast.Decls {
					if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == c[1] {
						collect(dep.src[dep.fset.Position(fn.Pos()).Offset:dep.fset.Position(fn.End()).Offset])
					}
				}
			}
		}
	}
	return defined, nil
}

// goFile is one parsed non-test Go file and its source.
type goFile struct {
	fset *token.FileSet
	ast  *ast.File
	src  []byte
}

// parseDir parses a package directory's non-test Go files.
func parseDir(dir string) ([]goFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []goFile
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		name := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, goFile{fset: fset, ast: f, src: src})
	}
	return files, nil
}

func makefileHasTarget(root, target string) (bool, error) {
	data, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		return false, err
	}
	for _, m := range targetRe.FindAllStringSubmatch(string(data), -1) {
		for _, t := range strings.Fields(m[1]) {
			if t == target {
				return true, nil
			}
		}
	}
	return false, nil
}

// routeRegistered reports whether the server's handler set registers
// method on a pattern of path's shape.
func routeRegistered(root, method, path string) (bool, error) {
	src, err := os.ReadFile(filepath.Join(root, "internal", "server", "http.go"))
	if err != nil {
		return false, err
	}
	segs := strings.Split(path, "/")
	for _, m := range routeDefRe.FindAllStringSubmatch(string(src), -1) {
		pattern := strings.Split(m[2], "/")
		if m[1] != method || len(pattern) != len(segs) {
			continue
		}
		match := true
		for i, p := range pattern {
			if p != segs[i] && !(strings.HasPrefix(p, "{") && segs[i] != "") {
				match = false
				break
			}
		}
		if match {
			return true, nil
		}
	}
	return false, nil
}
