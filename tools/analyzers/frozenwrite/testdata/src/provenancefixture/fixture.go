// Package provenance is type-checked as repro/internal/provenance
// against the real repro/internal/rel: a mirror of the pins
// directory's record. Published views point at a recorded pin, so it
// opts into the frozen discipline with the doc marker.
package provenance

import "repro/internal/rel"

// pin is a pins slot's record: a tuple under the VID it is pinned by.
//
// nettrails:frozen
type pin struct {
	vid rel.ID
	t   rel.Tuple
}

// record builds a pin in a composite literal, which is not a store.
func record(vid rel.ID, t rel.Tuple) *pin {
	return &pin{vid: vid, t: t}
}

// repin rewrites a recorded pin, which a view may point at.
func repin(p *pin, t rel.Tuple) {
	p.t = t // want `write to p\.t mutates frozen pin`
}
