package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "nettrails")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSmokeQuickstartLineage mirrors examples/quickstart on the CLI:
// MINCOST on a 3-node line, then the lineage of the derived n1→n3
// tuple.
func TestSmokeQuickstartLineage(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin,
		"-protocol", "mincost", "-topology", "line", "-nodes", "3",
		"-query", "lineage", "-tuple", "mincost(@'n1','n3',2)").CombinedOutput()
	if err != nil {
		t.Fatalf("nettrails: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"converged: 3 nodes", "mincost(@n1, n3, 2)", "query cost:"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestSmokeEpochLoopMatchesSerial is the CLI face of the determinism
// guarantee: -digests attaches a snapshot publisher, whose epoch
// observer makes the run drain through the epoch scheduler; without it
// the run drains through the serial loop. Protocol state must be
// identical. Only the traffic line may differ: the epoch scheduler
// coalesces per-link delta batches, so it sends fewer (but
// byte-equivalent) messages.
func TestSmokeEpochLoopMatchesSerial(t *testing.T) {
	bin := buildBinary(t)
	run := func(extra ...string) (tables, traffic string) {
		args := append([]string{
			"-protocol", "pathvector", "-topology", "ring", "-nodes", "8",
			"-tables", "n1"}, extra...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("nettrails %v: %v\n%s", extra, err, out)
		}
		var rest []string
		for _, line := range strings.Split(string(out), "\n") {
			switch {
			case strings.HasPrefix(line, "execution traffic:"):
				traffic = line
			case strings.HasPrefix(line, "run-stats "), strings.HasPrefix(line, "snapshot "), strings.HasPrefix(line, "digest "):
				// what -digests adds
			default:
				rest = append(rest, line)
			}
		}
		return strings.Join(rest, "\n"), traffic
	}
	serial, serialTraffic := run()
	epoch, epochTraffic := run("-digests")
	if serial != epoch {
		t.Errorf("state diverged between the serial and the epoch drain:\n--- serial ---\n%s\n--- epoch ---\n%s", serial, epoch)
	}
	if !strings.Contains(serial, "table bestpath") {
		t.Errorf("tables output missing bestpath:\n%s", serial)
	}
	if serialTraffic == "" || epochTraffic == "" || serialTraffic == epochTraffic {
		t.Fatalf("want two different traffic lines (coalescing), got %q and %q", serialTraffic, epochTraffic)
	}
}

// TestSmokeTextQuery exercises the -q textual query path.
func TestSmokeTextQuery(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin,
		"-protocol", "mincost", "-topology", "line", "-nodes", "3",
		"-q", "bases of mincost(@'n1','n3',2)").CombinedOutput()
	if err != nil {
		t.Fatalf("nettrails -q: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "link(@") {
		t.Errorf("bases output missing link tuples:\n%s", out)
	}
}

// TestVersionFlag: -version prints the build metadata and exits 0.
func TestVersionFlag(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-version").CombinedOutput()
	if err != nil {
		t.Fatalf("-version: %v\n%s", err, out)
	}
	if text := string(out); !strings.Contains(text, "repro") || !strings.Contains(text, "go1") {
		t.Fatalf("-version output = %q", text)
	}
}
