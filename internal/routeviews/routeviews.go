// Package routeviews provides BGP update traces in the spirit of the
// RouteViews project feeds the paper's demo replays. Real RouteViews
// archives are not redistributable here, so the package contains a
// deterministic synthetic generator producing realistic
// announce/withdraw sequences (prefix reuse, bursts of instability,
// origin churn), and a generator of internet-like AS topologies to
// replay them on.
package routeviews

import (
	"fmt"
	"math/rand"
)

// EventType is announce or withdraw.
type EventType int

// Trace event types.
const (
	Announce EventType = iota
	Withdraw
)

func (t EventType) String() string {
	if t == Withdraw {
		return "W"
	}
	return "A"
}

// Event is one BGP trace record.
type Event struct {
	Seq    int
	Type   EventType
	Prefix string
	Origin string // originating AS
}

// String renders the event as "<seq> <A|W> <prefix> <originAS>".
func (e Event) String() string {
	return fmt.Sprintf("%d %s %s %s", e.Seq, e.Type, e.Prefix, e.Origin)
}

// GenOptions selects one synthetic trace.
type GenOptions struct {
	Events  int
	Origins []string // candidate origin ASes
	Seed    int64
}

// The trace's shape: a pool of prefixes, the probability that an event
// withdraws a live prefix, and the number of instability bursts
// (announce/withdraw churn) spread evenly over the trace.
const (
	prefixes   = 32
	withdrawP  = 0.25
	flapBursts = 3
)

// Generate produces a synthetic trace. Invariants: withdrawals only
// target currently announced prefixes and come from the AS currently
// originating them; re-announcements may move a prefix to a new origin
// (origin churn, as seen in real tables).
func Generate(opts GenOptions) ([]Event, error) {
	if opts.Events <= 0 || len(opts.Origins) == 0 {
		return nil, fmt.Errorf("routeviews: invalid options %+v", opts)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	pool := make([]string, prefixes)
	for i := range pool {
		pool[i] = fmt.Sprintf("10.%d.%d.0/24", i/256, i%256)
	}
	liveOrigin := map[string]string{} // prefix -> current origin
	var out []Event
	seq := 0
	emit := func(t EventType, prefix, origin string) {
		out = append(out, Event{Seq: seq, Type: t, Prefix: prefix, Origin: origin})
		seq++
	}
	burstEvery := opts.Events / (flapBursts + 1)
	for seq < opts.Events {
		// Instability burst: flap one live prefix a few times.
		if burstEvery > 0 && seq > 0 && seq%burstEvery == 0 && len(liveOrigin) > 0 {
			p := livePick(rng, liveOrigin)
			o := liveOrigin[p]
			for i := 0; i < 3 && seq+1 < opts.Events; i++ {
				emit(Withdraw, p, o)
				emit(Announce, p, o)
			}
			liveOrigin[p] = o
			continue
		}
		if rng.Float64() < withdrawP && len(liveOrigin) > 0 {
			p := livePick(rng, liveOrigin)
			emit(Withdraw, p, liveOrigin[p])
			delete(liveOrigin, p)
			continue
		}
		p := pool[rng.Intn(len(pool))]
		if o, live := liveOrigin[p]; live {
			// Origin churn: withdraw from the old origin first.
			emit(Withdraw, p, o)
			delete(liveOrigin, p)
			if seq >= opts.Events {
				break
			}
		}
		o := opts.Origins[rng.Intn(len(opts.Origins))]
		emit(Announce, p, o)
		liveOrigin[p] = o
	}
	return out, nil
}

func livePick(rng *rand.Rand, live map[string]string) string {
	keys := make([]string, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	// Deterministic order before random pick.
	sortStrings(keys)
	return keys[rng.Intn(len(keys))]
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
