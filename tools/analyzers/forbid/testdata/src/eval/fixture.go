// Package evalfixture exercises the forbid analyzer inside the
// evaluator. The test harness type-checks it as
// repro/internal/eval/forbidfixture, where the walltime, wirecodec,
// corethread and eval's identity rules bind.
package evalfixture

import (
	"math/rand"
	"time"

	"repro/internal/rel"
)

// sim owns its randomness. The *rand.Rand type reference, its methods
// and the seeded constructors are legal: determinism comes from owning
// the seed, not from avoiding the package.
type sim struct {
	rng *rand.Rand
}

func newSim(seed int64) *sim {
	return &sim{rng: rand.New(rand.NewSource(seed))}
}

func (s *sim) draw() int {
	return s.rng.Intn(10)
}

func wallClock() time.Duration {
	start := time.Now()          // want `^walltime: wall-clock time\.Now in the deterministic core`
	time.Sleep(time.Millisecond) // want `^walltime: wall-clock time\.Sleep in the deterministic core`
	return time.Since(start)     // want `^walltime: wall-clock time\.Since in the deterministic core`
}

func ambient() int {
	return rand.Intn(10) // want `^walltime: ambient randomness rand\.Intn in the deterministic core`
}

// hp takes the slice-per-part hash as a value: no call, so no "(" for
// a text match to find.
var hp = rel.HashParts // want `^identity: rel\.HashParts hashes a slice per part`

// frame is how eval hashes parts; a comment naming rel.HashParts(a, b)
// is not a use.
func frame(a, b string) rel.ID {
	return rel.HashBytes(rel.AppendPart(rel.AppendPart(nil, a), b))
}

// suppressed shows a //lint:allow naming one rule silences that rule
// only: the wall-clock read is allowed, the goroutine is not.
func suppressed() {
	//lint:allow walltime fixture proves a suppression names one rule
	go func() { _ = time.Now() }() // want `^corethread: go statement in the single-threaded core`
}
