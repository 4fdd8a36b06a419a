package server

import (
	"testing"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/protocols"
	"repro/internal/provquery"
)

func TestShardSpecOwnedNodes(t *testing.T) {
	nodes := []string{"a", "b", "c", "d", "e"}
	for _, tc := range []struct {
		name   string
		spec   ShardSpec
		sorted []string
		want   []string
	}{
		{"unsharded-zero-value", ShardSpec{}, nodes, nodes},
		{"single-shard", ShardSpec{Index: 0, Total: 1}, nodes, nodes},
		{"first-of-three", ShardSpec{Index: 0, Total: 3}, nodes, []string{"a", "d"}},
		{"middle-of-three", ShardSpec{Index: 1, Total: 3}, nodes, []string{"b", "e"}},
		{"last-of-three", ShardSpec{Index: 2, Total: 3}, nodes, []string{"c"}},
		{"shards-equal-nodes", ShardSpec{Index: 4, Total: 5}, nodes, []string{"e"}},
		{"empty-network", ShardSpec{}, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.spec.OwnedNodes(tc.sorted)
			if len(got) != len(tc.want) {
				t.Fatalf("OwnedNodes = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("OwnedNodes = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestShardSpecRoundRobinCovers(t *testing.T) {
	// Every node lands on exactly one shard, whatever the split — the
	// shard OwnerOf, the one partitioning rule, names.
	nodes := []string{"a", "b", "c", "d", "e", "f", "g"}
	pos := map[string]int{}
	for i, n := range nodes {
		pos[n] = i
	}
	for total := 1; total <= len(nodes); total++ {
		seen := map[string]int{}
		for i := 0; i < total; i++ {
			for _, n := range (ShardSpec{Index: i, Total: total}).OwnedNodes(nodes) {
				seen[n]++
				if want := OwnerOf(pos[n], total); want != i {
					t.Fatalf("total=%d: node %s on shard %d, OwnerOf says %d", total, n, i, want)
				}
			}
		}
		if len(seen) != len(nodes) {
			t.Fatalf("total=%d: %d of %d nodes owned", total, len(seen), len(nodes))
		}
		for n, c := range seen {
			if c != 1 {
				t.Fatalf("total=%d: node %s owned by %d shards", total, n, c)
			}
		}
	}
}

// TestNewShardedPublisherRejects pins a sharded publisher's edge cases:
// more shards than nodes (an empty shard can never serve its slice),
// and malformed specs.
func TestNewShardedPublisherRejects(t *testing.T) {
	eng, err := engine.New(protocols.MinCost, []string{"n1", "n2", "n3"},
		engine.Options{Seed: 1, Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spec ShardSpec
	}{
		{"shards-exceed-nodes", ShardSpec{Index: 0, Total: 4}},
		{"negative-index", ShardSpec{Index: -1, Total: 2}},
		{"index-past-total", ShardSpec{Index: 2, Total: 2}},
		{"negative-total", ShardSpec{Index: 0, Total: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewPublisherWithOptions(eng, PublisherOptions{Retain: 1, Shard: tc.spec}); err == nil {
				t.Fatalf("NewPublisherWithOptions(shard %s) succeeded, want error", tc.spec)
			}
		})
	}
	// The boundary case that must work: exactly one node per shard.
	pub, err := NewPublisherWithOptions(eng, PublisherOptions{Retain: 1, Shard: ShardSpec{Index: 2, Total: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := pub.Current().Nodes; len(got) != 1 || got[0] != "n3" {
		t.Fatalf("3/3 shard over 3 nodes owns %v, want [n3]", got)
	}
	pub.Detach()
}

func TestClampOptionsTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		info Info
		in   provquery.Options
		want provquery.Options
	}{
		{"no-caps-passthrough", Info{}, provquery.Options{MaxDepth: 9, MaxNodes: 9}, provquery.Options{MaxDepth: 9, MaxNodes: 9}},
		{"unlimited-request-clamped", Info{MaxDepth: 4, MaxNodes: 8}, provquery.Options{}, provquery.Options{MaxDepth: 4, MaxNodes: 8}},
		{"looser-request-clamped", Info{MaxDepth: 4, MaxNodes: 8}, provquery.Options{MaxDepth: 100, MaxNodes: 100}, provquery.Options{MaxDepth: 4, MaxNodes: 8}},
		{"tighter-request-wins", Info{MaxDepth: 4, MaxNodes: 8}, provquery.Options{MaxDepth: 2, MaxNodes: 3}, provquery.Options{MaxDepth: 2, MaxNodes: 3}},
		{"equal-request-kept", Info{MaxDepth: 4}, provquery.Options{MaxDepth: 4}, provquery.Options{MaxDepth: 4}},
		{"threshold-untouched", Info{MaxDepth: 4}, provquery.Options{Threshold: 7}, provquery.Options{Threshold: 7, MaxDepth: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.info.ClampOptions(tc.in); got != tc.want {
				t.Fatalf("ClampOptions(%+v) = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}
}

func TestValidateOptionsTable(t *testing.T) {
	for _, tc := range []struct {
		name     string
		in       provquery.Options
		wantCode string // "" means valid
	}{
		{"zero-valid", provquery.Options{}, ""},
		{"max-boundary-valid", provquery.Options{MaxDepth: maxOptionValue}, ""},
		{"negative-threshold", provquery.Options{Threshold: -1}, client.CodeInvalidOption},
		{"negative-maxdepth", provquery.Options{MaxDepth: -5}, client.CodeInvalidOption},
		{"negative-maxnodes", provquery.Options{MaxNodes: -1}, client.CodeInvalidOption},
		{"absurd-maxnodes", provquery.Options{MaxNodes: maxOptionValue + 1}, client.CodeInvalidOption},
		{"absurd-threshold", provquery.Options{Threshold: 1 << 30}, client.CodeInvalidOption},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := validateOptions(tc.in)
			if tc.wantCode == "" {
				if err != nil {
					t.Fatalf("validateOptions(%+v) = %v, want nil", tc.in, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateOptions(%+v) succeeded, want %s", tc.in, tc.wantCode)
			}
			if err.Code != tc.wantCode || err.Status != 400 {
				t.Fatalf("validateOptions(%+v) = %d %s, want 400 %s", tc.in, err.Status, err.Code, tc.wantCode)
			}
		})
	}
}
