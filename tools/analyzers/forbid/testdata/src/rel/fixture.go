// Package relfixture exercises the forbid analyzer inside the
// relational layer. The test harness type-checks it as
// repro/internal/rel/forbidfixture, where the wirecodec and corethread
// rules bind.
package relfixture

import (
	bin "encoding/binary"
	"sync"
)

// putUv reaches the codec through an aliased import, as a value.
var putUv = bin.PutUvarint // want `^wirecodec: binary\.PutUvarint outside internal/wire`

func decode(b []byte) uint64 {
	v, _ := bin.Uvarint(b) // want `^wirecodec: binary\.Uvarint outside internal/wire`
	return v
}

func spawn(ch chan func()) {
	select {
	case <-ch:
		go func() {}() // want `^corethread: go statement in the single-threaded core`
	}
	// No identifier or "(" follows the keyword here.
	go []func(){func() {}}[0]() // want `^corethread: go statement in the single-threaded core`
}

// group embeds a sync.WaitGroup, so its methods are the WaitGroup's;
// a comment naming sync.WaitGroup is not a use.
type group struct {
	sync.WaitGroup              // want `^corethread: sync\.WaitGroup in the single-threaded core`
	mu             sync.Mutex   // want `^corethread: sync\.Mutex in the single-threaded core`
	rw             sync.RWMutex // want `^corethread: sync\.RWMutex in the single-threaded core`
	once           sync.Once    // want `^corethread: sync\.Once in the single-threaded core`
}

func (g *group) finish() {
	g.mu.Lock()          // want `^corethread: sync\.Mutex in the single-threaded core`
	g.Done()             // want `^corethread: sync\.WaitGroup in the single-threaded core`
	g.rw.RLock()         // want `^corethread: sync\.RWMutex in the single-threaded core`
	g.once.Do(func() {}) // want `^corethread: sync\.Once in the single-threaded core`
}
