package engine_test

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/engine"
	"repro/internal/protocols"
	"repro/internal/simnet"
)

// TestLinksCarryLinkLatency checks the three places that connect links:
// the engine's AddBiLink, a BGP deployment's sessions and the mobility
// model's radio links. Each must use simnet.LinkLatency.
func TestLinksCarryLinkLatency(t *testing.T) {
	check := func(what string, net *simnet.Network) {
		t.Helper()
		links := net.Links()
		if len(links) == 0 {
			t.Fatalf("%s: no links", what)
		}
		for _, l := range links {
			if l.Latency != simnet.LinkLatency {
				t.Errorf("%s: link %s-%s latency %d, want %d", what, l.A, l.B, l.Latency, simnet.LinkLatency)
			}
		}
	}

	eng, err := protocols.Build(protocols.MinCost, protocols.NodeNames(4), protocols.LineTopology(4, 1), engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	check("AddBiLink", eng.Net)

	d, err := bgp.NewDeployment([]string{"AS1", "AS2", "AS3"}, []bgp.ASLink{
		{A: "AS2", B: "AS1", Rel: bgp.Customer},
		{A: "AS3", B: "AS2", Rel: bgp.Peer},
	}, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	check("bgp.NewDeployment", d.Eng.Net)

	eng, err = engine.New(protocols.DSR, protocols.NodeNames(5), engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	simnet.NewMobilityModel(eng.Net, 11, 100, 100, 45, 12).Scatter()
	check("mobility model", eng.Net)
}
