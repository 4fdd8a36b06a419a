package provstore

import (
	"fmt"
	"testing"
)

// BenchmarkStore measures the on-disk snapshot store's three costs
// (go test -bench Store ./internal/provstore):
//
//   - append/delta=k: appending one version whose delta touches k
//     tuples spread over an 8-node shard, with the daemon's default
//     per-append fsync — the cost a publish tee adds to every epoch.
//     Input freezing happens untimed: the publisher already holds
//     frozen tables, so Append is the only new work.
//   - read/cold: materializing an arbitrary historical version from
//     sealed segments (trie point lookups + delta walk from the
//     nearest full record), the snapshot_evicted-fallback path.
//   - recovery/10k-epochs: Open over a 10k-version log (manifest
//     load, tail scan, torn-tail check) — the daemon's cold-start
//     cost after a crash or restart.
func BenchmarkStore(b *testing.B) {
	mkNodes := func(n int) ([]*testNode, []string) {
		nodes := make([]*testNode, n)
		owned := make([]string, n)
		for i := range nodes {
			owned[i] = fmt.Sprintf("n%02d", i)
			nodes[i] = newTestNode(owned[i])
		}
		return nodes, owned
	}
	// seed writes version 1, the mandatory full record carrying every
	// owned node's state; the benchmarked versions are deltas above it.
	seed := func(b *testing.B, st *Store, nodes []*testNode) {
		b.Helper()
		states := make([]NodeState, len(nodes))
		for i, n := range nodes {
			n.add(-1 - i)
			states[i] = n.state(i)
		}
		if err := st.Append(VersionInput{Version: 1, Time: 10, States: states}); err != nil {
			b.Fatal(err)
		}
	}
	appendDelta := func(b *testing.B, st *Store, nodes []*testNode, version uint64, seq, k int) {
		b.Helper()
		touched := map[int]bool{}
		for j := 0; j < k; j++ {
			i := (seq + j) % len(nodes)
			nodes[i].add(seq + j)
			touched[i] = true
		}
		var states []NodeState
		for i, n := range nodes {
			if touched[i] {
				states = append(states, n.state(i))
			}
		}
		if err := st.Append(VersionInput{Version: version, Time: int64(version) * 10, States: states}); err != nil {
			b.Fatal(err)
		}
	}

	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("append/delta=%d", k), func(b *testing.B) {
			nodes, owned := mkNodes(8)
			st, err := Open(b.TempDir(), testOptions(owned, nil))
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			seed(b, st, nodes)
			b.ReportAllocs()
			b.ResetTimer()
			seq := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				version := uint64(i + 2)
				touched := map[int]bool{}
				for j := 0; j < k; j++ {
					idx := (seq + j) % len(nodes)
					nodes[idx].add(seq + j)
					touched[idx] = true
				}
				var states []NodeState
				for idx, n := range nodes {
					if touched[idx] {
						states = append(states, n.state(idx))
					}
				}
				in := VersionInput{Version: version, Time: int64(version) * 10, States: states}
				seq += k
				b.StartTimer()
				if err := st.Append(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	b.Run("read/cold", func(b *testing.B) {
		const versions = 1024
		nodes, owned := mkNodes(8)
		st, err := Open(b.TempDir(), testOptions(owned, func(o *Options) {
			o.SealVersions = 128 // several sealed segments to seek across
			o.SyncEvery = 256
		}))
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		seed(b, st, nodes)
		for v := uint64(2); v <= versions; v++ {
			appendDelta(b, st, nodes, v, int(v)*2, 2)
		}
		if err := st.Sync(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := uint64(i*257)%versions + 1 // stride coprime to the range: any epoch, no locality
			if _, err := st.Materialize(v); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("recovery/10k-epochs", func(b *testing.B) {
		const versions = 10_000
		dir := b.TempDir()
		nodes, owned := mkNodes(2)
		opts := testOptions(owned, func(o *Options) { o.SyncEvery = 1024 })
		st, err := Open(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		seed(b, st, nodes)
		// Churn: each version adds one tuple and retracts one ~200
		// versions old, so tables stay small and setup stays linear.
		for v := uint64(2); v <= versions; v++ {
			i := int(v) % len(nodes)
			nodes[i].add(int(v))
			if v > 200 {
				nodes[i].remove(int(v) - 200)
			}
			in := VersionInput{Version: v, Time: int64(v) * 10, States: []NodeState{nodes[i].state(i)}}
			if err := st.Append(in); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := Open(dir, opts)
			if err != nil {
				b.Fatal(err)
			}
			if got := st.LastVersion(); got != versions {
				b.Fatalf("recovered to version %d, want %d", got, versions)
			}
			b.StopTimer()
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}
