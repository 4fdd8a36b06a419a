package evalfixture

import (
	"sync"
	"time"

	"repro/internal/rel"
)

// Tests are exempt from every rule: they may time themselves, spin
// goroutines and recompute identities to check them.
func timed() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = rel.HashParts([]byte("a")) }()
	wg.Wait()
	return time.Since(start)
}
