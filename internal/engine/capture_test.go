package engine

import (
	"testing"

	"repro/internal/eval"
	"repro/internal/rel"
)

// TestCapturedDeltasBoxOncePerMessage: the epoch scheduler keeps a
// captured delta typed until it ships, so a run of captures costs one
// boxed payload per singleton and, per DeltaBatch, the batch's payload
// and its member slice — nothing per batch member, and the network
// queues the messages without allocating.
func TestCapturedDeltasBoxOncePerMessage(t *testing.T) {
	e := newMincost(t, "n1", "n2", "n3")
	n1, _ := e.Node("n1")
	// n2, n3 and n2 ship alone; the last two, both bound for n3, ship
	// as one batch.
	dsts := []string{"n2", "n3", "n2", "n3", "n3"}
	deltas := make([]eval.Delta, len(dsts))
	for i, dst := range dsts {
		tp := rel.NewTuple("cost", rel.Addr(dst), rel.Addr("n1"), rel.Int(int64(i)))
		deltas[i] = eval.Delta{Tuple: tp.Identified(), Sign: 1}
	}
	f := eval.Firing{RuleName: "mc1"}
	run := func() {
		n1.cap = &e.captured
		for i, dst := range dsts {
			n1.RT.SendFn(dst, deltas[i], f)
		}
		n1.cap = nil
		e.enqueueCoalesced(e.captured)
		e.captured = e.captured[:0]
		for ok := true; ok; {
			_, ok = e.Net.NextEpoch() // drop the deliveries
		}
	}
	run() // warm-up: the capture buffer and the event queue grow here
	msgs0 := e.Net.KindTotals()[KindDelta].Messages
	const runs = 20
	const singletons, batches = 3, 1
	if got := testing.AllocsPerRun(runs, run); got != singletons+2*batches {
		t.Errorf("a run of %d captured deltas allocates %.1f times, want %d", len(dsts), got, singletons+2*batches)
	}
	// AllocsPerRun adds a warm-up run of its own.
	if got := e.Net.KindTotals()[KindDelta].Messages - msgs0; got != (runs+1)*(singletons+batches) {
		t.Errorf("shipped %d delta messages, want %d", got, (runs+1)*(singletons+batches))
	}
}
