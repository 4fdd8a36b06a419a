package main

import (
	"bufio"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/client"
	"repro/internal/testutil"
)

// buildBinary builds one of the repo's commands into a temp dir.
func buildBinary(t *testing.T, pkg, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// process is one daemon binary started by startProcess: the base URL it
// reported, the running command, and every line it printed. eof closes
// once the process has exited and all its output is collected.
type process struct {
	url   string
	cmd   *exec.Cmd
	mu    sync.Mutex
	lines []string
	eof   chan struct{}
}

func (p *process) contains(sub string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range p.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// startProcess launches a daemon binary on an ephemeral port and
// returns it once it prints the base URL it listens on.
func startProcess(t *testing.T, bin string, args ...string) *process {
	t.Helper()
	// Registered before the process-kill cleanup below, so the leak
	// verdict is reached after the process is gone and its stdout
	// scanner goroutine has drained to EOF.
	testutil.CheckGoroutines(t)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	p := &process{cmd: cmd, eof: make(chan struct{})}
	urlCh := make(chan string, 1)
	go func() {
		defer close(p.eof)
		sc := bufio.NewScanner(stdout)
		found := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.lines = append(p.lines, line)
			p.mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 && !found {
				found = true
				urlCh <- strings.Fields(line[i+len("listening on "):])[0]
			}
		}
	}()
	select {
	case p.url = <-urlCh:
		return p
	case <-time.After(30 * time.Second):
		t.Fatalf("%s never reported its listen address", bin)
		return nil
	}
}

// TestVersionFlag: -version prints build metadata and exits 0.
func TestVersionFlag(t *testing.T) {
	bin := buildBinary(t, ".", "nettrailsgw")
	out, err := exec.Command(bin, "-version").CombinedOutput()
	if err != nil {
		t.Fatalf("-version: %v\n%s", err, out)
	}
	if text := string(out); !strings.Contains(text, "repro") || !strings.Contains(text, "go1") {
		t.Fatalf("-version output = %q", text)
	}
}

// TestEmptyPeersRejected: a -peers list with no URL in it — absent,
// or only separators and blanks — is a usage error, not a panic.
func TestEmptyPeersRejected(t *testing.T) {
	bin := buildBinary(t, ".", "nettrailsgw")
	for _, peers := range []string{"", " , ", ","} {
		out, err := exec.Command(bin, "-peers", peers).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "-peers is required") || strings.Contains(string(out), "panic") {
			t.Errorf("-peers %q: err=%v, output:\n%s", peers, err, out)
		}
	}
}

// TestRequireDataFlag: -require-data gates the gateway boot on every
// shard running a durable snapshot store, so deep-history guarantees
// hold deployment-wide.
func TestRequireDataFlag(t *testing.T) {
	nettrailsd := buildBinary(t, "repro/cmd/nettrailsd", "nettrailsd")
	nettrailsgw := buildBinary(t, ".", "nettrailsgw")

	// A storeless shard fails the gate before any serving starts.
	bare := startProcess(t, nettrailsd, "-listen", "127.0.0.1:0",
		"-protocol", "mincost", "-topology", "line", "-nodes", "3", "-churn", "0")
	out, err := exec.Command(nettrailsgw, "-peers", bare.url, "-require-data").CombinedOutput()
	if err == nil {
		t.Fatalf("-require-data accepted a storeless shard:\n%s", out)
	}
	if !strings.Contains(string(out), "without a snapshot store") {
		t.Fatalf("-require-data failure does not name the cause: %s", out)
	}

	// With -data on the shard, the same gate passes and the gateway
	// serves (and reports the shard's protocol).
	durable := startProcess(t, nettrailsd, "-listen", "127.0.0.1:0",
		"-protocol", "mincost", "-topology", "line", "-nodes", "3", "-churn", "0",
		"-data", t.TempDir())
	gw := startProcess(t, nettrailsgw,
		"-listen", "127.0.0.1:0", "-peers", durable.url, "-require-data")
	c, err := client.New(gw.url)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Protocol != "mincost" {
		t.Fatalf("gateway health = %+v", h)
	}
}

// TestSmokeShardedDeployment boots a real 3-shard deployment — three
// nettrailsd processes with -shard i/3 — federates them behind a
// nettrailsgw process, and drives the full query surface through the
// SDK.
func TestSmokeShardedDeployment(t *testing.T) {
	nettrailsd := buildBinary(t, "repro/cmd/nettrailsd", "nettrailsd")
	nettrailsgw := buildBinary(t, ".", "nettrailsgw")

	var peers []string
	for i := 0; i < 3; i++ {
		shard := startProcess(t, nettrailsd,
			"-listen", "127.0.0.1:0",
			"-protocol", "mincost", "-topology", "grid", "-nodes", "9",
			"-shard", fmt.Sprintf("%d/3", i), "-churn", "0")
		peers = append(peers, shard.url)
	}
	gw := startProcess(t, nettrailsgw,
		"-listen", "127.0.0.1:0", "-peers", strings.Join(peers, ","))

	c, err := client.New(gw.url)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Protocol != "mincost" || h.Version == 0 {
		t.Fatalf("gateway health = %+v", h)
	}

	ns, err := c.Nodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns.Nodes) != 9 {
		t.Fatalf("gateway merged %d nodes, want 9", len(ns.Nodes))
	}

	// Cross-shard lineage: the corner-to-corner proof spans all three
	// shards' partitions.
	res, err := c.Lineage(ctx, "mincost(@'n1','n9',4)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Proof == nil || !strings.Contains(res.Text, "mincost(@n1, n9, 4)") {
		t.Fatalf("federated lineage = %+v", res)
	}
	if res.Stats.Messages == 0 {
		t.Fatalf("federated lineage charged no modeled messages: %+v", res.Stats)
	}

	// State routes through the gateway to the owning shard.
	st, err := c.State(ctx, "n5", client.Rel("mincost"))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tables["mincost"]) == 0 {
		t.Fatalf("state via gateway = %+v", st)
	}

	// Batch shares one pinned version and the gateway's result cache.
	batch, err := c.QueryBatch(ctx, []client.BatchQuery{
		{Q: "bases of mincost(@'n1','n9',4)"},
		{Type: "count", Tuple: "mincost(@'n1','n9',4)"},
		{Q: "bases of mincost(@'n1','n9',4)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 3 || batch.Results[1].Result.Count == nil {
		t.Fatalf("batch = %+v", batch)
	}
	if batch.CacheHits == 0 {
		t.Fatalf("repeated batch element was not cache-served: %+v", batch)
	}

	// Typed errors pass through the federation unchanged.
	if _, err := c.Lineage(ctx, "mincost(@'n1','n9',99)"); !client.IsCode(err, client.CodeNoProvenance) {
		t.Fatalf("unknown tuple error = %v", err)
	}

	// Querying a shard directly for a cross-shard traversal refuses
	// with wrong_shard — the gateway is the integration point.
	shard0, err := client.New(peers[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard0.Lineage(ctx, "mincost(@'n1','n9',4)"); !client.IsCode(err, client.CodeWrongShard) {
		t.Fatalf("direct cross-shard query error = %v", err)
	}
}

// TestGracefulShutdown sends SIGTERM to a gateway over one shard and
// requires a clean exit: in-flight queries drain through
// http.Server.Shutdown, and the process reports "stopped" with exit
// status 0.
func TestGracefulShutdown(t *testing.T) {
	nettrailsd := buildBinary(t, "repro/cmd/nettrailsd", "nettrailsd")
	nettrailsgw := buildBinary(t, ".", "nettrailsgw")
	shard := startProcess(t, nettrailsd, "-listen", "127.0.0.1:0",
		"-protocol", "mincost", "-topology", "line", "-nodes", "3", "-churn", "0")
	gw := startProcess(t, nettrailsgw, "-listen", "127.0.0.1:0", "-peers", shard.url, "-drain", "10s")
	c, err := client.New(gw.url)
	if err != nil {
		t.Fatal(err)
	}

	// Make sure the gateway is really serving first.
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}

	if err := gw.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Wait for output EOF first: the gateway exiting closes the pipe's
	// write end, and only then is calling Wait (which closes the read
	// end) free of losing the final lines.
	select {
	case <-gw.eof:
	case <-time.After(30 * time.Second):
		t.Fatal("gateway did not exit within 30s of SIGTERM")
	}
	if err := gw.cmd.Wait(); err != nil {
		t.Fatalf("gateway exited uncleanly after SIGTERM: %v", err)
	}
	if !gw.contains("shutting down") || !gw.contains("nettrailsgw: stopped") {
		t.Fatalf("missing shutdown messages in output: %v", gw.lines)
	}
	// The listener must actually be gone.
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("gateway still serving after clean exit")
	}
}
