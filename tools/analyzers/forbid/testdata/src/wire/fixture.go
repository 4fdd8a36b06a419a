// Package wirefixture is type-checked as
// repro/internal/wire/forbidfixture: internal/wire is the one place
// the uvarint codec is written, so wirecodec does not bind here, while
// the package stays in walltime's deterministic core.
package wirefixture

import (
	"encoding/binary"
	"time"
)

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func uvarint(b []byte) (uint64, int) { return binary.Uvarint(b) }

func stamp() time.Time {
	return time.Now() // want `^walltime: wall-clock time\.Now in the deterministic core`
}
