// Package walltimefixture exercises forbid's walltime rule: the
// deterministic core may only read virtual clocks and draw from
// scenario-seeded randomness. The test harness type-checks this
// package as repro/internal/simnet/walltimefixture so the scope gate
// admits it.
package walltimefixture

import (
	"math/rand"
	"time"
)

// sim owns its randomness. The *rand.Rand type reference and the
// seeded constructors are legal: determinism comes from owning the
// seed, not from avoiding the package.
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
	start := time.Now()          // want `wall-clock time\.Now in the deterministic core`
	time.Sleep(time.Millisecond) // want `wall-clock time\.Sleep in the deterministic core`
	return time.Since(start)     // want `wall-clock time\.Since in the deterministic core`
}

func ambient() int {
	return rand.Intn(10) // want `ambient randomness rand\.Intn in the deterministic core`
}

func suppressed() time.Time {
	//lint:allow walltime fixture proves justified suppressions are honored
	return time.Now()
}
