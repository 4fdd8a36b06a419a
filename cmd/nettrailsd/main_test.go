package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro"
	"repro/client"
	"repro/internal/protocols"
	"repro/internal/server"
	"repro/internal/testutil"
)

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "nettrailsd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches nettrailsd on an ephemeral port and returns an
// SDK client for it plus the running process (for signal-driven
// tests), leaving the process running until test cleanup. The daemon's
// remaining output accumulates in the returned buffer.
func startDaemon(t *testing.T, args ...string) (*client.Client, *exec.Cmd, *syncBuffer) {
	t.Helper()
	// Registered before the process-kill cleanup below, so the leak
	// verdict is reached after the daemon is gone and its stdout
	// scanner goroutine has drained to EOF.
	testutil.CheckGoroutines(t)
	bin := buildBinary(t)
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
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
	sc := bufio.NewScanner(stdout)
	deadline := time.After(30 * time.Second)
	urlCh := make(chan string, 1)
	out := &syncBuffer{eof: make(chan struct{})}
	go func() {
		// The loop ends at EOF, i.e. when the daemon exits and the pipe's
		// write end closes — after every line it ever printed is read.
		defer close(out.eof)
		found := false
		for sc.Scan() {
			line := sc.Text()
			out.append(line)
			if i := strings.Index(line, "listening on "); i >= 0 && !found {
				found = true
				urlCh <- strings.Fields(line[i+len("listening on "):])[0]
			}
		}
	}()
	select {
	case url := <-urlCh:
		out.url = url
		c, err := client.New(url)
		if err != nil {
			t.Fatal(err)
		}
		return c, cmd, out
	case <-deadline:
		t.Fatal("daemon never reported its listen address")
		return nil, nil, nil
	}
}

// syncBuffer collects daemon output across goroutines; eof closes once
// every line the daemon ever printed has been collected. url is the
// base URL the daemon reported listening on.
type syncBuffer struct {
	url   string
	mu    sync.Mutex
	lines []string
	eof   chan struct{}
}

func (b *syncBuffer) append(line string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lines = append(b.lines, line)
}

func (b *syncBuffer) contains(sub string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, l := range b.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// await reports whether a line containing sub arrives before the
// daemon's output ends or d passes.
func (b *syncBuffer) await(sub string, d time.Duration) bool {
	deadline := time.After(d)
	for !b.contains(sub) {
		select {
		case <-b.eof:
			return b.contains(sub)
		case <-deadline:
			return false
		case <-time.After(10 * time.Millisecond):
		}
	}
	return true
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v\n%s", url, resp.StatusCode, err, body)
	}
	return string(body)
}

// TestDaemonServesWhatTheLibraryServes pins daemon ≡ library: the node
// document nettrailsd publishes for a seed is the one the same script
// publishes in-process — traffic counters included — on every host.
// (When the daemon sized a worker pool from the CPU count, a multi-core
// host converged through the coalescing drain and served fewer
// sentMsgs than the library.)
func TestDaemonServesWhatTheLibraryServes(t *testing.T) {
	_, _, out := startDaemon(t, "-topology", "grid", "-nodes", "16", "-churn", "0")
	got := httpGet(t, out.url+"/v1/nodes?version=1")

	sys, err := nettrails.NewSystem(nettrails.MinCost, nettrails.NodeNames(16), nettrails.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range protocols.GridTopology(4, 4, 1) {
		if err := sys.AddLink(e.A, e.B, e.Cost); err != nil {
			t.Fatal(err)
		}
	}
	pub, err := server.NewPublisher(sys.Engine, server.DefaultRetain)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(pub, server.Info{Protocol: "mincost"}).Handler())
	defer ts.Close()
	want := httpGet(t, ts.URL+"/v1/nodes?version=1")

	if got != want {
		t.Fatalf("daemon and library serve different node documents for the same script:\n--- daemon ---\n%s\n--- library ---\n%s", got, want)
	}
}

// TestVersionFlag: -version prints the build metadata and exits 0
// without starting a server.
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

// TestSmokeSDKEndToEnd boots the daemon on the quickstart scenario
// (MINCOST, 3-node line) and drives the full v1 surface through the
// public Go SDK: health, build info, nodes, state, textual and typed
// queries, batch, and DOT export.
func TestSmokeSDKEndToEnd(t *testing.T) {
	c, _, _ := startDaemon(t, "-protocol", "mincost", "-topology", "line", "-nodes", "3")
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Nodes != 3 || h.Version == 0 {
		t.Fatalf("health = %+v", h)
	}

	bi, err := c.ServerVersion(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if bi.Module != "repro" || !strings.HasPrefix(bi.GoVersion, "go") {
		t.Fatalf("server version = %+v", bi)
	}

	ns, err := c.Nodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns.Nodes) != 3 || ns.Nodes[0].Addr != "n1" {
		t.Fatalf("nodes = %+v", ns)
	}

	st, err := c.State(ctx, "n1", client.Rel("mincost"))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tables["mincost"]) == 0 {
		t.Fatalf("state = %+v", st)
	}

	res, err := c.Query(ctx, "lineage of mincost(@'n1','n3',2)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Type != "lineage" || res.Proof == nil || !strings.Contains(res.Text, "mincost(@n1, n3, 2)") {
		t.Fatalf("query = %+v", res)
	}

	batch, err := c.QueryBatch(ctx, []client.BatchQuery{
		{Q: "bases of mincost(@'n1','n3',2)"},
		{Type: "count", Tuple: "mincost(@'n1','n3',2)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 || batch.Results[0].Err != nil || batch.Results[1].Result.Count == nil {
		t.Fatalf("batch = %+v", batch)
	}

	dot, err := c.ProofDOT(ctx, "mincost(@'n1','n3',2)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.Graph, "digraph provenance") {
		t.Fatalf("dot = %+v", dot)
	}

	// Typed errors flow through the daemon too.
	if _, err := c.Lineage(ctx, "mincost(@'n1','n3',99)"); !client.IsCode(err, client.CodeNoProvenance) {
		t.Fatalf("unknown tuple error = %v", err)
	}
}

// TestSmokeShardFlag: -shard i/N publishes only the owned slice,
// reports it on /v1/healthz and /v1/shards, and refuses state reads
// for nodes another shard owns.
func TestSmokeShardFlag(t *testing.T) {
	c, _, out := startDaemon(t, "-protocol", "mincost", "-topology", "grid", "-nodes", "9",
		"-shard", "1/3", "-churn", "50ms")
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1 of 3 over the sorted n1..n9 owns positions 1,4,7.
	if h.Nodes != 3 {
		t.Fatalf("shard health reports %d nodes, want 3", h.Nodes)
	}

	sh, err := c.Shards(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Shard.Index != 1 || sh.Shard.Total != 3 ||
		len(sh.Nodes) != 3 || len(sh.AllNodes) != 9 || sh.Nodes[0] != "n2" {
		t.Fatalf("shards = %+v", sh)
	}

	if _, err := c.State(ctx, "n2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.State(ctx, "n1"); !client.IsCode(err, client.CodeWrongShard) {
		t.Fatalf("state for unowned node = %v, want %s", err, client.CodeWrongShard)
	}

	// The daemon warns that wall-clock churn drifts sharded versions.
	if !out.await("lets shard versions drift", 10*time.Second) {
		t.Fatal("missing churn-drift warning in sharded daemon output")
	}

	// Bad specs fail fast.
	bin := buildBinary(t)
	if err := exec.Command(bin, "-shard", "3/3").Run(); err == nil {
		t.Fatal("-shard 3/3 unexpectedly accepted")
	}
	if err := exec.Command(bin, "-shard", "banana").Run(); err == nil {
		t.Fatal("-shard banana unexpectedly accepted")
	}
	// Trailing garbage must not parse as a plausible shard.
	if err := exec.Command(bin, "-shard", "1/3x").Run(); err == nil {
		t.Fatal("-shard 1/3x unexpectedly accepted")
	}
}

// TestSmokeChurnAdvancesVersionsAndPinnedReadsAgree checks the daemon
// end to end through the SDK: churn advances snapshot versions while
// concurrent version-pinned queries return identical results.
func TestSmokeChurnAdvancesVersionsAndPinnedReadsAgree(t *testing.T) {
	c, _, _ := startDaemon(t, "-protocol", "mincost", "-topology", "ring", "-nodes", "4",
		"-churn", "30ms")
	ctx := context.Background()

	version := func() uint64 {
		h, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return h.Version
	}

	v0 := version()
	deadline := time.Now().Add(30 * time.Second)
	for version() == v0 {
		if time.Now().After(deadline) {
			t.Fatal("snapshot version never advanced under churn")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Pin whatever is current and read it twice concurrently.
	v := version()
	var wg sync.WaitGroup
	replies := make([]*client.QueryResult, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i], errs[i] = c.Bases(ctx, "mincost(@'n1','n3',2)", client.At(v))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		// The pinned version may age out mid-flight under churn; that
		// is a clean, typed outcome, not a failure.
		if err != nil && !client.IsCode(err, client.CodeSnapshotEvicted) {
			t.Fatalf("pinned read %d: %v", i, err)
		}
	}
	if errs[0] == nil && errs[1] == nil {
		// Cache observability differs per request; the snapshot-determined
		// payload must not.
		replies[0].Cache, replies[1].Cache = client.CacheInfo{}, client.CacheInfo{}
		if !reflect.DeepEqual(replies[0], replies[1]) {
			t.Fatalf("pinned reads diverged:\n%+v\nvs\n%+v", replies[0], replies[1])
		}
		if replies[0].Version != v {
			t.Fatalf("pinned read answered version %d, want %d", replies[0].Version, v)
		}
	}
}

// TestSmokeDataFlag boots the daemon with a durable snapshot store,
// drives a deep-history query through the SDK, restarts the process on
// the same directory, and requires the version sequence to resume and
// the history to survive.
func TestSmokeDataFlag(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-protocol", "mincost", "-topology", "line", "-nodes", "3",
		"-churn", "20ms", "-retain", "4", "-data", dir, "-store-sync", "8"}
	c, cmd, out := startDaemon(t, args...)
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Store == nil {
		t.Fatalf("health with -data = %+v (store missing)", h)
	}
	if !out.await("snapshot store at", 30*time.Second) {
		t.Fatal("daemon did not report its snapshot store on startup")
	}

	// Deep history: the base link fact exists from the first version.
	hf, err := c.HistoryFirst(ctx, "link(@'n1','n2',1)", "")
	if err != nil {
		t.Fatal(err)
	}
	if hf.Node != "n1" || hf.FirstVersion == 0 {
		t.Fatalf("history/first = %+v", hf)
	}

	// Let churn advance the version chain, then shut down cleanly.
	deadline := time.Now().Add(30 * time.Second)
	v := h.Version
	for v <= h.Version {
		if time.Now().After(deadline) {
			t.Fatal("version never advanced under churn")
		}
		time.Sleep(20 * time.Millisecond)
		h2, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		v = h2.Version
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-out.eof:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit within 30s of SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly: %v", err)
	}

	// Restart over the same directory: the sequence resumes past the
	// last served version and early history still answers.
	c2, _, _ := startDaemon(t, args...)
	h2, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Version <= v {
		t.Fatalf("restart minted version %d, want > %d", h2.Version, v)
	}
	if h2.Store == nil || h2.Store.Oldest != 1 {
		t.Fatalf("restarted store health = %+v", h2.Store)
	}
	hf2, err := c2.HistoryFirst(ctx, "link(@'n1','n2',1)", "")
	if err != nil {
		t.Fatal(err)
	}
	if hf2.FirstVersion != hf.FirstVersion {
		t.Fatalf("first version drifted across restart: %d vs %d", hf2.FirstVersion, hf.FirstVersion)
	}

	// Store knobs without -data fail the boot.
	bin := buildBinary(t)
	if err := exec.Command(bin, "-store-retain", "5").Run(); err == nil {
		t.Fatal("-store-retain without -data unexpectedly accepted")
	}
}

// TestGracefulShutdown sends SIGTERM to a churning daemon and requires
// a clean exit: the churn loop stops at an epoch boundary, in-flight
// queries drain through http.Server.Shutdown, and the process reports
// "stopped" with exit status 0 instead of dying mid-epoch.
func TestGracefulShutdown(t *testing.T) {
	c, cmd, out := startDaemon(t, "-protocol", "mincost", "-topology", "ring", "-nodes", "4",
		"-churn", "20ms", "-drain", "10s")

	// Make sure the daemon is really serving (and churning) first.
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // let at least one churn tick land

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Wait for output EOF first: the daemon exiting closes the pipe's
	// write end, and only then is calling Wait (which closes the read
	// end) free of losing the final lines.
	select {
	case <-out.eof:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit within 30s of SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly after SIGTERM: %v", err)
	}
	if !out.contains("shutting down") || !out.contains("nettrailsd: stopped") {
		t.Fatalf("missing shutdown messages in output: %v", out.lines)
	}
	// The listener must actually be gone.
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("daemon still serving after clean exit")
	}
}
