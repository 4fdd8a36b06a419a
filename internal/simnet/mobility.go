package simnet

import (
	"math/rand"
	"sort"
)

// Waypoint mobility for the DSR (mobile ad-hoc) scenario: each node
// walks toward a random waypoint inside a bounding box; when it arrives
// it picks a new one. Connectivity is radio-range based; the model
// reports link appearance/disappearance so the protocol layer can
// maintain link base tuples.

// MobilityModel moves nodes and recomputes range-based connectivity.
type MobilityModel struct {
	net    *Network
	rng    *rand.Rand
	Width  float64
	Height float64
	Range  float64 // radio range
	Speed  float64 // distance units per step

	waypoints map[string]Position
	adjacent  map[linkKey]bool

	// OnLinkUp/OnLinkDown fire when range connectivity changes.
	OnLinkUp   func(a, b string)
	OnLinkDown func(a, b string)
}

// NewMobilityModel creates a model over the network's nodes.
func NewMobilityModel(net *Network, seed int64, width, height, radioRange, speed float64) *MobilityModel {
	return &MobilityModel{
		net:       net,
		rng:       rand.New(rand.NewSource(seed)),
		Width:     width,
		Height:    height,
		Range:     radioRange,
		Speed:     speed,
		waypoints: map[string]Position{},
		adjacent:  map[linkKey]bool{},
	}
}

// Scatter places every node uniformly at random and computes initial
// connectivity (firing OnLinkUp for each in-range pair).
func (m *MobilityModel) Scatter() {
	for _, name := range m.net.Nodes() {
		p := Position{X: m.rng.Float64() * m.Width, Y: m.rng.Float64() * m.Height}
		_ = m.net.SetPosition(name, p)
		m.waypoints[name] = m.newWaypoint()
	}
	m.refreshLinks()
}

func (m *MobilityModel) newWaypoint() Position {
	return Position{X: m.rng.Float64() * m.Width, Y: m.rng.Float64() * m.Height}
}

// Step moves every node one speed-step toward its waypoint and updates
// connectivity.
func (m *MobilityModel) Step() {
	for _, name := range m.net.Nodes() {
		pos, _ := m.net.PositionOf(name)
		wp := m.waypoints[name]
		d := pos.Dist(wp)
		if d <= m.Speed {
			_ = m.net.SetPosition(name, wp)
			m.waypoints[name] = m.newWaypoint()
			continue
		}
		frac := m.Speed / d
		_ = m.net.SetPosition(name, Position{
			X: pos.X + (wp.X-pos.X)*frac,
			Y: pos.Y + (wp.Y-pos.Y)*frac,
		})
	}
	m.refreshLinks()
}

// refreshLinks recomputes pairwise connectivity and fires callbacks for
// changes, in deterministic (sorted) order.
func (m *MobilityModel) refreshLinks() {
	nodes := m.net.Nodes()
	next := map[linkKey]bool{}
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			if m.net.InRange(a, b, m.Range) {
				next[keyFor(a, b)] = true
			}
		}
	}
	var ups, downs []linkKey
	for k := range next {
		if !m.adjacent[k] {
			ups = append(ups, k)
		}
	}
	for k := range m.adjacent {
		if !next[k] {
			downs = append(downs, k)
		}
	}
	sort.Slice(ups, func(i, j int) bool {
		if ups[i].a != ups[j].a {
			return ups[i].a < ups[j].a
		}
		return ups[i].b < ups[j].b
	})
	sort.Slice(downs, func(i, j int) bool {
		if downs[i].a != downs[j].a {
			return downs[i].a < downs[j].a
		}
		return downs[i].b < downs[j].b
	})
	m.adjacent = next
	for _, k := range downs {
		m.net.SetLinkUp(k.a, k.b, false)
		if m.OnLinkDown != nil {
			m.OnLinkDown(k.a, k.b)
		}
	}
	for _, k := range ups {
		if _, ok := m.net.LinkBetween(k.a, k.b); !ok {
			_, _ = m.net.Connect(k.a, k.b, LinkLatency)
		} else {
			m.net.SetLinkUp(k.a, k.b, true)
		}
		if m.OnLinkUp != nil {
			m.OnLinkUp(k.a, k.b)
		}
	}
}

// Adjacent reports current range connectivity between two nodes.
func (m *MobilityModel) Adjacent(a, b string) bool { return m.adjacent[keyFor(a, b)] }

// AdjacentPairs returns all in-range pairs, sorted.
func (m *MobilityModel) AdjacentPairs() [][2]string {
	var keys []linkKey
	for k := range m.adjacent {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	out := make([][2]string, len(keys))
	for i, k := range keys {
		out[i] = [2]string{k.a, k.b}
	}
	return out
}
