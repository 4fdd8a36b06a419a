// Package outsidefixture is type-checked as repro/cmd/forbidfixture,
// outside every rule's scope: a command's main loop may read the wall
// clock, start goroutines and mint root contexts.
package outsidefixture

import (
	"context"
	"encoding/binary"
	"math/rand"
	"net/http"
	"time"
)

func main() {
	ctx := context.Background()
	start := time.Now()
	go func() { _ = binary.AppendUvarint(nil, uint64(rand.Intn(10))) }()
	http.Error(nil, ctx.Err().Error(), 500)
	_ = time.Since(start)
}
