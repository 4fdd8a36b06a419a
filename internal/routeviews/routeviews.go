// Package routeviews provides BGP update traces in the spirit of the
// RouteViews project feeds the paper's demo replays. Real RouteViews
// archives are not redistributable here, so the package contains a
// deterministic synthetic generator producing realistic
// announce/withdraw sequences (prefix reuse, bursts of instability,
// origin churn) plus a parser/serializer for a simple text format so
// externally obtained traces can be replayed too:
//
//	# comment
//	<seq> A <prefix> <originAS>
//	<seq> W <prefix> <originAS>
package routeviews

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
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

// String renders the event in trace format.
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

// Write serializes events in trace format.
func Write(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		if _, err := fmt.Fprintln(bw, e.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Parse reads a trace. Blank lines and lines starting with '#' are
// skipped.
func Parse(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("routeviews: line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		seq, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("routeviews: line %d: bad seq %q", lineNo, fields[0])
		}
		var typ EventType
		switch fields[1] {
		case "A":
			typ = Announce
		case "W":
			typ = Withdraw
		default:
			return nil, fmt.Errorf("routeviews: line %d: bad type %q", lineNo, fields[1])
		}
		out = append(out, Event{Seq: seq, Type: typ, Prefix: fields[2], Origin: fields[3]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Validate checks trace invariants: withdrawals target live prefixes
// from their current origin; sequence numbers are strictly increasing.
func Validate(events []Event) error {
	live := map[string]string{}
	lastSeq := -1
	for i, e := range events {
		if e.Seq <= lastSeq {
			return fmt.Errorf("routeviews: event %d: non-increasing seq %d", i, e.Seq)
		}
		lastSeq = e.Seq
		switch e.Type {
		case Announce:
			live[e.Prefix] = e.Origin
		case Withdraw:
			o, ok := live[e.Prefix]
			if !ok {
				return fmt.Errorf("routeviews: event %d withdraws dead prefix %s", i, e.Prefix)
			}
			if o != e.Origin {
				return fmt.Errorf("routeviews: event %d withdraws %s from %s, but origin is %s", i, e.Prefix, e.Origin, o)
			}
			delete(live, e.Prefix)
		}
	}
	return nil
}
