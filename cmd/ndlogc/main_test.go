package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildBinary compiles the command under test into a temp dir and
// returns the executable path.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ndlogc")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSmokeCompileBuiltin runs the compiler front-end on the protocol
// the quickstart example executes and checks all three pipeline stages
// appear.
func TestSmokeCompileBuiltin(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-protocol", "mincost").CombinedOutput()
	if err != nil {
		t.Fatalf("ndlogc -protocol mincost: %v\n%s", err, out)
	}
	text := string(out)
	if len(text) == 0 {
		t.Fatal("empty output")
	}
	for _, section := range []string{"=== source ===", "=== localized ===", "=== provenance rewrite ==="} {
		if !strings.Contains(text, section) {
			t.Errorf("output missing %q:\n%s", section, text)
		}
	}
}

// TestSmokeCompileFile feeds a program file (the quickstart protocol
// written to disk) through the file-argument path.
func TestSmokeCompileFile(t *testing.T) {
	bin := buildBinary(t)
	src := `
materialize(link, infinity, infinity, keys(1,2)).
materialize(cost, infinity, infinity, keys(1,2,3)).
mc1 cost(@S,D,C) :- link(@S,D,C).
`
	file := filepath.Join(t.TempDir(), "prog.ndlog")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-stage", "localized", file).CombinedOutput()
	if err != nil {
		t.Fatalf("ndlogc %s: %v\n%s", file, err, out)
	}
	if !strings.Contains(string(out), "mc1") {
		t.Errorf("localized output missing rule:\n%s", out)
	}
}

// TestDeletionSafetyWarnings: a program whose recursion the counting
// engine cannot retract exactly (the two-rule transitive closure) draws
// a warning on stderr and still compiles with exit 0; a demo protocol
// draws none.
func TestDeletionSafetyWarnings(t *testing.T) {
	bin := buildBinary(t)
	run := func(args ...string) (stdout, stderr string) {
		t.Helper()
		var out, errOut bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &out, &errOut
		if err := cmd.Run(); err != nil {
			t.Fatalf("ndlogc %v: %v\n%s", args, err, errOut.String())
		}
		return out.String(), errOut.String()
	}
	file := filepath.Join(t.TempDir(), "reach.ndlog")
	src := `
materialize(edge, infinity, infinity, keys(1,2,3)).
materialize(reach, infinity, infinity, keys(1,2,3)).
r1 reach(@N,X,Y) :- edge(@N,X,Y).
r2 reach(@N,X,Z) :- edge(@N,X,Y), reach(@N,Y,Z).
`
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr := run(file)
	if !strings.Contains(stderr, "ndlogc: warning: ") || !strings.Contains(stderr, "r2") {
		t.Errorf("reach: want a deletion-safety warning naming r2 on stderr, got %q", stderr)
	}
	// A warning may cite a document only if the repo has it.
	for _, doc := range regexp.MustCompile(`[\w./-]+\.(?:md|go|txt)\b`).FindAllString(stderr, -1) {
		if _, err := os.Stat(filepath.Join("..", "..", doc)); err != nil {
			t.Errorf("reach: the warning cites %s, which the repo does not have", doc)
		}
	}
	if strings.Contains(stdout, "warning") || !strings.Contains(stdout, "=== source ===") {
		t.Errorf("reach: stdout carries a warning or lost its stages:\n%s", stdout)
	}
	if _, stderr := run("-protocol", "mincost"); stderr != "" {
		t.Errorf("mincost: want no warnings, got %q", stderr)
	}
}

// TestSmokeBadUsageExits verifies the compiler fails fast with a
// non-zero exit on unknown input instead of emitting garbage.
func TestSmokeBadUsageExits(t *testing.T) {
	bin := buildBinary(t)
	err := exec.Command(bin, "-protocol", "nosuch").Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() == 0 {
		t.Fatalf("expected non-zero exit, got %v", err)
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
