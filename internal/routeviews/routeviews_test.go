package routeviews

import (
	"fmt"
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

// Validate checks trace invariants: withdrawals target live prefixes
// from their current origin; sequence numbers are strictly increasing.
func Validate(events []Event) error {
	live := map[string]string{}
	lastSeq := -1
	for i, e := range events {
		if e.Seq <= lastSeq {
			return fmt.Errorf("routeviews: event %d: non-increasing seq %d", i, e.Seq)
		}
		lastSeq = e.Seq
		switch e.Type {
		case Announce:
			live[e.Prefix] = e.Origin
		case Withdraw:
			o, ok := live[e.Prefix]
			if !ok {
				return fmt.Errorf("routeviews: event %d withdraws dead prefix %s", i, e.Prefix)
			}
			if o != e.Origin {
				return fmt.Errorf("routeviews: event %d withdraws %s from %s, but origin is %s", i, e.Prefix, e.Origin, o)
			}
			delete(live, e.Prefix)
		}
	}
	return nil
}
