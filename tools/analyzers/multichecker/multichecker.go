// Package multichecker drives a set of analysis.Analyzers in the two
// modes cmd/nettrailsvet runs in:
//
//   - as a vettool: `go vet -vettool=$(nettrailsvet) ./...` invokes the
//     binary once per package with a vet.cfg describing source files
//     and export data (the same unitchecker protocol x/tools speaks),
//     after a `-V=full` handshake that lets cmd/go cache results;
//   - standalone: `nettrailsvet ./...` loads packages itself through
//     `go list -export`, which is how the self-hosting test sweeps the
//     repo inside `go test`.
//
// Diagnostics print as file:line:col: category: message, the category
// being the analyzer's name unless the finding names its own. Exit status 2
// means findings, matching go vet; 1 means the tool itself failed.
package multichecker

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"sort"

	"repro/tools/analyzers/analysis"
	"repro/tools/analyzers/load"
)

// vetConfig mirrors cmd/go's vet.cfg JSON (the fields this driver
// consumes).
type vetConfig struct {
	ID          string
	Compiler    string
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string

	SucceedOnTypecheckFailure bool
}

// Main runs the analyzers per the command line and exits.
func Main(name string, analyzers ...*analysis.Analyzer) {
	versionFlag := flag.String("V", "", "print version and exit (cmd/go handshake)")
	flagsFlag := flag.Bool("flags", false, "print the tool's flag schema as JSON and exit (cmd/go handshake)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [package pattern ...]\n", name)
		fmt.Fprintf(os.Stderr, "   or: go vet -vettool=$(command -v %s) [package pattern ...]\n\n", name)
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "%s: %s\n\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *versionFlag != "" {
		// cmd/go wants `<name> version <non-devel-token>`; hashing the
		// executable makes the version honest across rebuilds, so vet
		// result caching invalidates exactly when the tool changes.
		printVersion(name)
		return
	}
	if *flagsFlag {
		// cmd/go asks which flags the tool accepts so it can validate
		// the vet command line. This driver exposes none: every
		// analyzer always runs.
		fmt.Println("[]")
		return
	}

	args := flag.Args()
	if len(args) == 1 && len(args[0]) > 4 && args[0][len(args[0])-4:] == ".cfg" {
		os.Exit(runVetCfg(args[0], analyzers))
	}
	if len(args) == 0 {
		flag.Usage()
		os.Exit(1)
	}
	os.Exit(runStandalone(args, analyzers))
}

func printVersion(name string) {
	version := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			_, _ = io.Copy(h, f)
			f.Close()
			version = fmt.Sprintf("repro-%x", h.Sum(nil)[:12])
		}
	}
	fmt.Printf("%s version %s\n", name, version)
}

// runVetCfg analyzes the single package a vet.cfg describes.
func runVetCfg(cfgFile string, analyzers []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "parsing %s: %v\n", cfgFile, err)
		return 1
	}
	// The driver keeps no cross-package facts, but cmd/go expects the
	// output file to exist after every run.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	fset := token.NewFileSet()
	imp := load.NewImporter(fset, cfg.PackageFile, cfg.ImportMap)
	pkg, err := load.Check(cfg.ImportPath, fset, cfg.GoFiles, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "%s: %v\n", cfg.ImportPath, err)
		return 1
	}
	diags := RunAnalyzers(pkg, analyzers)
	printDiags(fset, diags)
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// runStandalone loads the patterns itself and analyzes every matched
// package.
func runStandalone(patterns []string, analyzers []*analysis.Analyzer) int {
	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	exit := 0
	for _, pkg := range pkgs {
		diags := RunAnalyzers(pkg, analyzers)
		printDiags(pkg.Fset, diags)
		if len(diags) > 0 {
			exit = 2
		}
	}
	return exit
}

// RunAnalyzers applies every analyzer to one package, drops
// //lint:allow-suppressed findings, and returns the rest sorted by
// position, each with its Category set. Exported for the self-hosting
// test.
func RunAnalyzers(pkg *load.Package, analyzers []*analysis.Analyzer) []analysis.Diagnostic {
	supp := analysis.NewSuppressions(pkg.Fset, pkg.Syntax)
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		pass.Report = func(d analysis.Diagnostic) {
			if d.Category == "" {
				d.Category = a.Name
			}
			if !supp.Allowed(d.Category, d.Pos) {
				diags = append(diags, d)
			}
		}
		if _, err := a.Run(pass); err != nil {
			diags = append(diags, analysis.Diagnostic{Category: a.Name, Message: fmt.Sprintf("analyzer failed: %v", err)})
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags
}

func printDiags(fset *token.FileSet, diags []analysis.Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Category, d.Message)
	}
}
