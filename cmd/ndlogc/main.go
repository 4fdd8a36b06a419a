// ndlogc is the NDlog compiler front-end: it shows a program's
// compilation pipeline — the source, the localization rewrite
// (link-restricted splitting), and the ExSPAN provenance rewrite
// (prov/ruleExec maintenance rules). Rules whose deletions the
// counting engine cannot maintain exactly (nettrails.DeletionSafety)
// are reported on stderr as warnings; they change neither the output
// nor the exit status.
//
// Usage:
//
//	ndlogc -protocol mincost
//	ndlogc program.ndlog
package main

import (
	"flag"
	"fmt"
	"os"

	nettrails "repro"
	"repro/internal/buildinfo"
	"repro/internal/protocols"
)

func main() {
	protocol := flag.String("protocol", "", "builtin protocol: mincost, pathvector, dsr, distancevector")
	stage := flag.String("stage", "all", "which stage to print: source, localized, provenance, all")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *showVersion {
		buildinfo.PrintVersion("ndlogc")
		return
	}

	var src string
	switch {
	case *protocol != "":
		p, ok := protocols.Programs[*protocol]
		if !ok {
			fmt.Fprintf(os.Stderr, "ndlogc: unknown protocol %q\n", *protocol)
			os.Exit(2)
		}
		src = p
	case flag.NArg() == 1:
		b, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "ndlogc: %v\n", err)
			os.Exit(1)
		}
		src = string(b)
	default:
		fmt.Fprintln(os.Stderr, "usage: ndlogc [-stage source|localized|provenance|all] (-protocol NAME | FILE)")
		os.Exit(2)
	}

	source, localized, withProv, err := nettrails.CompileReport(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ndlogc: %v\n", err)
		os.Exit(1)
	}
	warnings, err := nettrails.DeletionSafety(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ndlogc: %v\n", err)
		os.Exit(1)
	}
	for _, w := range warnings {
		fmt.Fprintf(os.Stderr, "ndlogc: warning: %s\n", w)
	}
	show := func(title, body string) {
		fmt.Printf("=== %s ===\n%s\n", title, body)
	}
	switch *stage {
	case "source":
		show("source", source)
	case "localized":
		show("localized", localized)
	case "provenance":
		show("provenance rewrite", withProv)
	case "all":
		show("source", source)
		show("localized", localized)
		show("provenance rewrite", withProv)
	default:
		fmt.Fprintf(os.Stderr, "ndlogc: unknown stage %q\n", *stage)
		os.Exit(2)
	}
}
