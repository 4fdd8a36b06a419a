package routeviews

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseRouteViews shakes the trace parser with arbitrary input and
// enforces the parse/serialize round trip: any trace the parser
// accepts must re-serialize to a form that parses back to the
// identical events. Wired into `make fuzz`.
func FuzzParseRouteViews(f *testing.F) {
	f.Add("# comment\n0 A 10.0.0.0/24 AS1\n1 W 10.0.0.0/24 AS1\n")
	f.Add("5 A 192.0.2.0/24 AS8")
	f.Add("")
	f.Add("0 A p o\n0 W p o\n")
	f.Add("-3 A x y\n")
	f.Add("00 A é ☃\n")
	events, err := Generate(GenOptions{Events: 200, Origins: []string{"AS1", "AS2", "AS3"}, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := Write(&seed, events); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())

	f.Fuzz(func(t *testing.T, src string) {
		evs, err := Parse(strings.NewReader(src))
		if err != nil {
			return // rejected input: only panics count as failures
		}
		var buf bytes.Buffer
		if err := Write(&buf, evs); err != nil {
			t.Fatalf("Write failed on parsed events: %v", err)
		}
		again, err := Parse(&buf)
		if err != nil {
			t.Fatalf("re-parse of serialized trace failed: %v\ninput: %q\nserialized: %q", err, src, buf.String())
		}
		if len(evs) != 0 || len(again) != 0 {
			if !reflect.DeepEqual(evs, again) {
				t.Fatalf("round trip changed events:\nfirst  %v\nsecond %v", evs, again)
			}
		}
	})
}

// FuzzParseASGraph does the same for the AS-graph fixture parser.
func FuzzParseASGraph(f *testing.F) {
	f.Add("# ases AS1 AS2\nAS1|AS2|-1\n")
	f.Add("a|b|0\nb|c|-1\n")
	f.Add("#\n\n")
	g, err := GenerateASGraph(ASGraphOptions{Nodes: 12, Seed: 2})
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := WriteASGraph(&seed, g); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())

	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseASGraph(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteASGraph(&buf, g); err != nil {
			t.Fatalf("WriteASGraph failed on parsed graph: %v", err)
		}
		again, err := ParseASGraph(&buf)
		if err != nil {
			t.Fatalf("re-parse of serialized graph failed: %v\ninput: %q\nserialized: %q", err, src, buf.String())
		}
		if !reflect.DeepEqual(g, again) {
			t.Fatalf("round trip changed graph:\nfirst  %+v\nsecond %+v", g, again)
		}
	})
}
