// nettrailsfsck is the offline provstore inspector: it verifies a
// snapshot-store directory without opening it for writing and reports
// what recovery would see. It reads every segment with the scanner
// recovery uses, so a store it passes is one provstore.Open opens.
// Checks cover the manifest, every record's CRC, each segment's
// deployment identity, each seal record's index (rebuilt from the
// records and compared byte for byte), the dense version chain with
// its resolution-vector invariants, blob resolvability for every
// retained version, orphaned blobs, and the tail's torn bytes.
//
// Usage:
//
//	nettrailsfsck -data /var/lib/nettrails/prov
//	nettrailsfsck -data shard0-store -verbose
//
// Exit status 0 means the store is clean (orphans and a torn tail are
// informational — recovery handles both); 1 means integrity
// violations were found; 2 means the check itself failed.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/provstore"
)

func main() {
	var (
		data    = flag.String("data", "", "provstore directory to check (required)")
		verbose = flag.Bool("verbose", false, "print per-segment detail while scanning")
	)
	flag.Parse()
	if *data == "" {
		fmt.Fprintln(os.Stderr, "nettrailsfsck: -data is required")
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(*data, *verbose))
}

func run(dir string, verbose bool) int {
	rep, err := provstore.Fsck(dir, os.Stdout, verbose)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nettrailsfsck: %v\n", err)
		return 2
	}
	fmt.Printf("segments: %d sealed, %d active\n", rep.SealedSegments, rep.ActiveSegments)
	fmt.Printf("records:  %d (%d blobs, %d orphaned)\n", rep.Records, rep.Blobs, rep.OrphanBlobs)
	if rep.LastVersion != 0 {
		fmt.Printf("versions: %d-%d\n", rep.FirstVersion, rep.LastVersion)
	} else {
		fmt.Printf("versions: none\n")
	}
	if rep.TornTailBytes != 0 {
		fmt.Printf("torn tail: %d bytes (recovery will truncate)\n", rep.TornTailBytes)
	}
	if !rep.Ok() {
		for _, p := range rep.Problems {
			fmt.Printf("PROBLEM: %s\n", p)
		}
		fmt.Printf("%d problems found\n", len(rep.Problems))
		return 1
	}
	fmt.Println("clean")
	return 0
}
