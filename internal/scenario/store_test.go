package scenario

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/client"
	"repro/internal/provstore"
	"repro/internal/testutil"
)

// pinnedJob is one oracle check with its snapshot version resolved to
// an explicit pin, so the identical request stays answerable — and
// must stay byte-identical — long after the ring has moved on.
type pinnedJob struct {
	name    string
	version uint64
	body    []byte
}

// pinnedJobs resolves every check of the booted deployment to an
// explicitly version-pinned query request (final-state checks pin the
// current version).
func pinnedJobs(t *testing.T, d *Deployment) []pinnedJob {
	t.Helper()
	jobs := make([]pinnedJob, 0, len(d.Checks))
	for _, c := range d.Checks {
		version, err := d.resolveMark(c.AtMark)
		if err != nil {
			t.Fatal(err)
		}
		if version == 0 {
			version = d.SinglePub.Current().Version
		}
		body, err := json.Marshal(&client.QueryRequest{Q: c.Query, Version: version})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, pinnedJob{name: c.Name, version: version, body: body})
	}
	return jobs
}

// answerAll posts every pinned job to the single process and the
// gateway, asserts status 200 and single/gateway byte-parity, and
// returns the bodies keyed by check name.
func answerAll(t *testing.T, d *Deployment, jobs []pinnedJob, label string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, j := range jobs {
		sStatus, sBody, err := post(d.Single.URL+"/v1/query", j.body)
		if err != nil {
			t.Fatalf("%s: %s: single: %v", label, j.name, err)
		}
		gStatus, gBody, err := post(d.Gateway.URL+"/v1/query", j.body)
		if err != nil {
			t.Fatalf("%s: %s: gateway: %v", label, j.name, err)
		}
		if sStatus != http.StatusOK || gStatus != http.StatusOK {
			t.Fatalf("%s: %s@%d: single %d %s / gateway %d %s",
				label, j.name, j.version, sStatus, sBody, gStatus, gBody)
		}
		if !bytes.Equal(sBody, gBody) {
			t.Fatalf("%s: %s@%d: arm parity broken:\nsingle  %s\ngateway %s",
				label, j.name, j.version, sBody, gBody)
		}
		out[j.name] = sBody
	}
	return out
}

func sameAnswers(t *testing.T, want, got map[string][]byte, label string) {
	t.Helper()
	for name, w := range want {
		if g := got[name]; !bytes.Equal(w, g) {
			t.Errorf("%s: %s drifted:\nbefore %s\nafter  %s", label, name, w, g)
		}
	}
}

// TestStoreDurableAcceptance is ISSUE 9's acceptance criterion run
// through the harness: every arm (single process and 3 shards behind
// the gateway) boots with a snapshot store, churns for >=1000 epochs
// past the ring retention, keeps answering the early pinned checks
// byte-identically from disk (never snapshot_evicted), and after a
// full restart over the same stores resumes its dense version
// sequence and still serves those pins byte-identically.
func TestStoreDurableAcceptance(t *testing.T) {
	testutil.CheckGoroutines(t)
	dir := t.TempDir()
	const retain = 8
	opts := BootOptions{
		Retain:  retain,
		DataDir: dir,
		// Batch fsyncs: the churn loop mints thousands of versions and
		// per-append durability would make the test mostly fsync.
		Store: func(o *provstore.Options) { o.SyncEvery = 256 },
	}
	d, err := BootWithOptions(RouteLeak(), opts)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			d.Close()
		}
	}()
	if len(d.Stores) != 1+ShardCount {
		t.Fatalf("booted %d stores, want %d", len(d.Stores), 1+ShardCount)
	}

	// Answer every check while its pinned version is still in the ring.
	jobs := pinnedJobs(t, d)
	before := answerAll(t, d, jobs, "in-ring")
	maxPin := uint64(0)
	for _, j := range jobs {
		if j.version > maxPin {
			maxPin = j.version
		}
	}

	// Churn >=1000 epochs past the retention window on every arm, in
	// lockstep (each churn event mints at least one version).
	epochs := retain + 1000
	if testing.Short() {
		epochs = retain + 60
	}
	if err := d.churn(epochs); err != nil {
		t.Fatal(err)
	}
	last := d.SinglePub.Current().Version
	if last < maxPin+uint64(epochs) {
		t.Fatalf("churn reached version %d, want >= %d", last, maxPin+uint64(epochs))
	}
	for i, pub := range d.ShardPubs {
		if got := pub.Current().Version; got != last {
			t.Fatalf("shard %d at version %d, single at %d", i, got, last)
		}
	}

	// The pins are long gone from every ring; disk answers must be
	// byte-identical on both arms.
	sameAnswers(t, before, answerAll(t, d, jobs, "after eviction"), "after eviction")

	// Restart: every process goes away, fresh engines reopen the same
	// stores, the version sequence resumes densely, and the early pins
	// still answer byte-identically.
	d.Close()
	closed = true
	opts.Resume = true
	d2, err := BootWithOptions(RouteLeak(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.SinglePub.Current().Version; got != last+1 {
		t.Fatalf("restart minted version %d, want %d", got, last+1)
	}
	sameAnswers(t, before, answerAll(t, d2, jobs, "after restart"), "after restart")

	// And the restarted deployment reports the full retained range.
	oldest, newest := d2.SinglePub.Versions()
	if oldest != 1 || newest != last+1 {
		t.Fatalf("restarted versions = [%d, %d], want [1, %d]", oldest, newest, last+1)
	}
}
