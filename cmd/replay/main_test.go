package main

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "replay")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSmokeMincostReplay runs the Figure 2 walkthrough end to end and
// checks every published version is listed, oldest first.
func TestSmokeMincostReplay(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-demo", "mincost").CombinedOutput()
	if err != nil {
		t.Fatalf("replay -demo mincost: %v\n%s", err, out)
	}
	text := string(out)
	_, last := stepVersions(t, text)
	for _, want := range []string{
		fmt.Sprintf("published versions 1..%d\n", last),
		"\n[1] t=0 ", fmt.Sprintf("\n[%d] t=", last), "final topology:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("replay output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, fmt.Sprintf("\n[%d] t=", last+1)) {
		t.Errorf("replay lists a version past the last step's:\n%s", text)
	}
}

// stepVersions reads the script's "<step> -> version N" lines: the
// version current just before the n2-n3 failure and after it.
func stepVersions(t *testing.T, out string) (beforeFail, afterFail uint64) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		name, rest, ok := strings.Cut(line, " -> version ")
		if !ok {
			continue
		}
		var v uint64
		if _, err := fmt.Sscanf(rest, "%d", &v); err != nil {
			t.Fatalf("step line %q: %v", line, err)
		}
		switch strings.TrimSpace(name) {
		case "link n1-n4":
			beforeFail = v
		case "fail n2-n3":
			afterFail = v
		}
	}
	if beforeFail == 0 || afterFail <= beforeFail {
		t.Fatalf("step versions before/after the failure = %d/%d:\n%s", beforeFail, afterFail, out)
	}
	return beforeFail, afterFail
}

// TestSmokeMincostInspectInstant pauses at two published versions: the
// one current before the scripted n2-n3 failure and the final one. Each
// shows that instant's tables and that instant's proof of n1's route to
// n4 — through link(@n2, n3, 1) while the link is up, over the direct
// n1-n4 link once it is gone.
func TestSmokeMincostInspectInstant(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-demo", "mincost").CombinedOutput()
	if err != nil {
		t.Fatalf("replay -demo mincost: %v\n%s", err, out)
	}
	before, after := stepVersions(t, string(out))
	inspect := func(v uint64) (tables, proof string) {
		t.Helper()
		out, err := exec.Command(bin, "-demo", "mincost", "-at", fmt.Sprint(v), "-node", "n1").CombinedOutput()
		if err != nil {
			t.Fatalf("replay -at %d: %v\n%s", v, err, out)
		}
		tables, proof, ok := strings.Cut(string(out), fmt.Sprintf("provenance at version %d (t=", v))
		if !ok {
			t.Fatalf("replay -at %d prints no proof labelled with its version:\n%s", v, out)
		}
		return tables, proof
	}

	tables, proof := inspect(before)
	if !strings.Contains(tables, "mincost(@n1, n4, 3)") {
		t.Errorf("version %d tables lack the 3-hop route:\n%s", before, tables)
	}
	if !strings.Contains(proof, "mincost(@n1, n4, 3) @n1") || !strings.Contains(proof, "link(@n2, n3, 1) @n2 [base]") {
		t.Errorf("version %d proof does not go through link(@n2, n3, 1):\n%s", before, proof)
	}

	tables, proof = inspect(after)
	if !strings.Contains(tables, "mincost(@n1, n4, 5)") {
		t.Errorf("version %d tables lack the direct route:\n%s", after, tables)
	}
	if !strings.Contains(proof, "link(@n1, n4, 5) @n1 [base]") || strings.Contains(proof, "link(@n2, n3, 1)") {
		t.Errorf("version %d proof still goes through the failed link:\n%s", after, proof)
	}
}

// TestInspectOutOfRange: a version that was never published exits
// non-zero and names the retained range.
func TestInspectOutOfRange(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-demo", "mincost", "-at", "9999").CombinedOutput()
	if err == nil {
		t.Fatalf("replay -at 9999 exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "-at 9999 out of range (published versions 1..") {
		t.Errorf("out-of-range message lacks the retained range:\n%s", out)
	}
}

// TestSmokeBGPReplay runs the legacy-application demo.
func TestSmokeBGPReplay(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-demo", "bgp").CombinedOutput()
	if err != nil {
		t.Fatalf("replay -demo bgp: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "replayed 80 trace events") {
		t.Errorf("unexpected BGP replay output:\n%s", out)
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
