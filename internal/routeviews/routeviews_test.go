package routeviews

import (
	"bytes"
	"strings"
	"testing"
)

func TestGenerateValidates(t *testing.T) {
	opts := GenOptions{Events: 200, Origins: []string{"AS1", "AS2", "AS3"}, Seed: 1}
	events, err := Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	if err := Validate(events); err != nil {
		t.Fatal(err)
	}
	// Both announcements and withdrawals present.
	var a, w int
	for _, e := range events {
		switch e.Type {
		case Announce:
			a++
		case Withdraw:
			w++
		}
	}
	if a == 0 || w == 0 {
		t.Fatalf("a=%d w=%d", a, w)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	opts := GenOptions{Events: 200, Origins: []string{"AS1", "AS2"}, Seed: 1}
	e1, _ := Generate(opts)
	e2, _ := Generate(opts)
	if len(e1) != len(e2) {
		t.Fatal("lengths differ")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
	opts.Seed = 99
	e3, _ := Generate(opts)
	same := len(e1) == len(e3)
	if same {
		for i := range e1 {
			if e1[i] != e3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds gave identical traces")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(GenOptions{}); err == nil {
		t.Fatal("zero options must error")
	}
	if _, err := Generate(GenOptions{Events: 1}); err == nil {
		t.Fatal("no origins must error")
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	events, _ := Generate(GenOptions{Events: 200, Origins: []string{"AS1", "AS2"}, Seed: 1})
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip lost events: %d vs %d", len(back), len(events))
	}
	for i := range back {
		if back[i] != events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestParseCommentsAndErrors(t *testing.T) {
	good := "# header\n\n0 A 10.0.0.0/24 AS1\n1 W 10.0.0.0/24 AS1\n"
	events, err := Parse(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Type != Withdraw {
		t.Fatalf("events = %v", events)
	}
	bad := []string{
		"x A 10.0.0.0/24 AS1",
		"0 Z 10.0.0.0/24 AS1",
		"0 A 10.0.0.0/24",
	}
	for _, line := range bad {
		if _, err := Parse(strings.NewReader(line)); err == nil {
			t.Errorf("Parse(%q) should fail", line)
		}
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	cases := [][]Event{
		{{Seq: 0, Type: Withdraw, Prefix: "p", Origin: "AS1"}},
		{{Seq: 0, Type: Announce, Prefix: "p", Origin: "AS1"}, {Seq: 0, Type: Withdraw, Prefix: "p", Origin: "AS1"}},
		{{Seq: 0, Type: Announce, Prefix: "p", Origin: "AS1"}, {Seq: 1, Type: Withdraw, Prefix: "p", Origin: "AS2"}},
	}
	for i, evs := range cases {
		if err := Validate(evs); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}
