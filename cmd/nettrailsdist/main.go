// nettrailsdist is the distributed-engine acceptance
// orchestrator: it builds the nettrails CLI, runs the same
// protocol/topology script as one plain process and as 2- and
// 3-member engine clusters of real OS processes over loopback TCP,
// proves the shapes byte-identical (every per-node snapshot digest of
// every cluster member must equal the single-process digest), and
// prints a JSON report with epoch throughput and epoch-cut latency per
// shape to stdout. The parity is what it asserts; the timings are one
// sample, not a benchmark (that is bench/).
//
// Usage examples:
//
//	nettrailsdist
//	nettrailsdist -protocol pathvector -topology grid -nodes 16
//	nettrailsdist -procs 1,3
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "nettrailsdist: "+format+"\n", args...)
	os.Exit(1)
}

// MemberStats is one cluster member's protocol counters, parsed from
// its cluster-stats output line.
type MemberStats struct {
	Member    int    `json:"member"`
	Epochs    uint64 `json:"epochs"`
	Rounds    uint64 `json:"rounds"`
	FramesOut uint64 `json:"framesOut"`
	FramesIn  uint64 `json:"framesIn"`
	BytesOut  uint64 `json:"bytesOut"`
	BytesIn   uint64 `json:"bytesIn"`
	WallNS    int64  `json:"wallNs"`
}

// Shape is the measured result of running the script at one process
// count.
type Shape struct {
	Procs int `json:"procs"`
	// Epochs is the number of global virtual instants the run agreed
	// on and advanced through (identical at every shape: the script is
	// deterministic).
	Epochs uint64 `json:"epochs"`
	// WallNS is the slowest member's wall-clock time for the whole
	// link script (the cluster moves at the pace of its slowest
	// member).
	WallNS       int64   `json:"wallNs"`
	EpochsPerSec float64 `json:"epochsPerSec"`
	// CutLatencyNS is the mean wall-clock cost of agreeing one epoch
	// cut and advancing to it (WallNS / Epochs).
	CutLatencyNS int64         `json:"cutLatencyNs"`
	FramesOut    uint64        `json:"framesOut"`
	BytesOut     uint64        `json:"bytesOut"`
	Members      []MemberStats `json:"members,omitempty"`
}

// Report is the BENCH_dist.json schema.
type Report struct {
	Protocol        string  `json:"protocol"`
	Topology        string  `json:"topology"`
	Nodes           int     `json:"nodes"`
	Seed            int64   `json:"seed"`
	SnapshotVersion uint64  `json:"snapshotVersion"`
	DigestNodes     int     `json:"digestNodes"`
	Parity          string  `json:"parity"`
	Shapes          []Shape `json:"shapes"`
}

// runOutput is everything parsed from one process's stdout.
type runOutput struct {
	digests map[string]string
	version uint64
	wallNS  int64
	stats   *MemberStats
}

func parseOutput(out string) (runOutput, error) {
	r := runOutput{digests: map[string]string{}}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "digest":
			if len(fields) != 3 {
				return r, fmt.Errorf("bad digest line %q", line)
			}
			r.digests[fields[1]] = fields[2]
		case "snapshot", "run-stats", "cluster-stats":
			kv := map[string]uint64{}
			for _, f := range fields[1:] {
				k, v, ok := strings.Cut(f, "=")
				if !ok {
					return r, fmt.Errorf("bad stats field %q in %q", f, line)
				}
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return r, fmt.Errorf("bad stats value %q in %q", f, line)
				}
				kv[k] = n
			}
			switch fields[0] {
			case "snapshot":
				r.version = kv["version"]
			case "run-stats":
				r.wallNS = int64(kv["wall_ns"])
			case "cluster-stats":
				r.stats = &MemberStats{
					Member:    int(kv["member"]),
					Epochs:    kv["epochs"],
					Rounds:    kv["rounds"],
					FramesOut: kv["frames_out"],
					FramesIn:  kv["frames_in"],
					BytesOut:  kv["bytes_out"],
					BytesIn:   kv["bytes_in"],
					WallNS:    int64(kv["wall_ns"]),
				}
			}
		}
	}
	if len(r.digests) == 0 {
		return r, fmt.Errorf("no digest lines in output:\n%s", out)
	}
	return r, nil
}

// freePorts binds count ephemeral loopback listeners, records their
// addresses, and releases them for the spawned processes to claim.
func freePorts(count int) ([]string, error) {
	addrs := make([]string, count)
	lns := make([]net.Listener, count)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

func main() {
	protocol := flag.String("protocol", "pathvector", "protocol to converge (pathvector derives across node boundaries, so remote deltas really cross the wire)")
	topology := flag.String("topology", "grid", "topology generator passed through to nettrails")
	nodes := flag.Int("nodes", 16, "node count passed through to nettrails")
	seed := flag.Int64("seed", 1, "seed passed through to nettrails")
	procsList := flag.String("procs", "1,2,3", "comma-separated process counts to measure")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-shape deadline")
	flag.Parse()

	var procs []int
	for _, f := range strings.Split(*procsList, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || p < 1 {
			fail("bad -procs entry %q", f)
		}
		procs = append(procs, p)
	}
	sort.Ints(procs)

	bin := filepath.Join(os.TempDir(), fmt.Sprintf("nettrails-dist-%d", os.Getpid()))
	build := exec.Command("go", "build", "-o", bin, "./cmd/nettrails")
	if msg, err := build.CombinedOutput(); err != nil {
		fail("go build: %v\n%s", err, msg)
	}
	defer os.Remove(bin)

	base := []string{
		"-protocol", *protocol, "-topology", *topology,
		"-nodes", strconv.Itoa(*nodes), "-seed", strconv.FormatInt(*seed, 10),
		"-digests",
	}

	// The plain single-process run is the parity reference: every
	// cluster member's digests must match it byte for byte.
	fmt.Fprintf(os.Stderr, "nettrailsdist: reference run (%s on %s/%d)\n", *protocol, *topology, *nodes)
	refCtx, refCancel := context.WithTimeout(context.Background(), *timeout)
	refOut, err := exec.CommandContext(refCtx, bin, base...).CombinedOutput()
	refCancel()
	if err != nil {
		fail("reference run: %v\n%s", err, refOut)
	}
	ref, err := parseOutput(string(refOut))
	if err != nil {
		fail("reference run: %v", err)
	}

	report := Report{
		Protocol:        *protocol,
		Topology:        *topology,
		Nodes:           *nodes,
		Seed:            *seed,
		SnapshotVersion: ref.version,
		DigestNodes:     len(ref.digests),
		Parity:          "byte-identical",
	}

	var clusterEpochs uint64
	singleShape := -1
	for _, p := range procs {
		if p == 1 {
			// The 1-process point: no cluster protocol, so its epoch
			// count is filled in from the (identical, deterministic)
			// cluster runs below.
			report.Shapes = append(report.Shapes, Shape{Procs: 1, WallNS: ref.wallNS})
			singleShape = len(report.Shapes) - 1
			continue
		}

		addrs, err := freePorts(p)
		if err != nil {
			fail("ports for %d procs: %v", p, err)
		}
		peers := strings.Join(addrs, ",")
		fmt.Fprintf(os.Stderr, "nettrailsdist: %d-process TCP cluster on %s\n", p, peers)

		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		outputs := make([][]byte, p)
		errs := make([]error, p)
		done := make(chan int, p)
		for i := 0; i < p; i++ {
			go func(rank int) {
				args := append(append([]string{}, base...),
					"-transport", "tcp", "-peers", peers, "-self", strconv.Itoa(rank))
				outputs[rank], errs[rank] = exec.CommandContext(ctx, bin, args...).CombinedOutput()
				done <- rank
			}(i)
		}
		for i := 0; i < p; i++ {
			<-done
		}
		cancel()

		shape := Shape{Procs: p}
		for rank := 0; rank < p; rank++ {
			if errs[rank] != nil {
				fail("%d-process member %d: %v\n%s", p, rank, errs[rank], outputs[rank])
			}
			m, err := parseOutput(string(outputs[rank]))
			if err != nil {
				fail("%d-process member %d: %v", p, rank, err)
			}
			if m.stats == nil {
				fail("%d-process member %d printed no cluster-stats:\n%s", p, rank, outputs[rank])
			}
			if m.version != ref.version {
				fail("%d-process member %d at snapshot version %d, reference at %d", p, rank, m.version, ref.version)
			}
			for addr, d := range m.digests {
				want, ok := ref.digests[addr]
				if !ok {
					fail("%d-process member %d owns unknown node %s", p, rank, addr)
				}
				if d != want {
					fail("byte parity broken: node %s digest %s at %d-process member %d, reference %s",
						addr, d, p, rank, want)
				}
				delete(ref.digests, addr)
			}
			if shape.Epochs == 0 {
				shape.Epochs = m.stats.Epochs
			} else if m.stats.Epochs != shape.Epochs {
				fail("%d-process members disagree on epoch count: %d vs %d", p, m.stats.Epochs, shape.Epochs)
			}
			if m.stats.WallNS > shape.WallNS {
				shape.WallNS = m.stats.WallNS
			}
			shape.FramesOut += m.stats.FramesOut
			shape.BytesOut += m.stats.BytesOut
			shape.Members = append(shape.Members, *m.stats)
		}
		if len(ref.digests) != 0 {
			var missing []string
			for addr := range ref.digests {
				missing = append(missing, addr)
			}
			sort.Strings(missing)
			fail("%d-process cluster covered no shard owning %s", p, strings.Join(missing, ","))
		}
		// Refill the reference map for the next shape.
		ref, err = parseOutput(string(refOut))
		if err != nil {
			fail("reference reparse: %v", err)
		}

		if clusterEpochs == 0 {
			clusterEpochs = shape.Epochs
		} else if shape.Epochs != clusterEpochs {
			fail("shapes disagree on epoch count: %d vs %d", shape.Epochs, clusterEpochs)
		}
		report.Shapes = append(report.Shapes, shape)
	}

	if singleShape >= 0 {
		report.Shapes[singleShape].Epochs = clusterEpochs
	}
	for i := range report.Shapes {
		s := &report.Shapes[i]
		if s.Epochs > 0 && s.WallNS > 0 {
			s.EpochsPerSec = float64(s.Epochs) / (float64(s.WallNS) / 1e9)
			s.CutLatencyNS = s.WallNS / int64(s.Epochs)
		}
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	os.Stdout.Write(append(enc, '\n'))
	for _, s := range report.Shapes {
		fmt.Fprintf(os.Stderr, "nettrailsdist: %d proc(s): %d epochs, %.0f epochs/s, cut %.2fms\n",
			s.Procs, s.Epochs, s.EpochsPerSec, float64(s.CutLatencyNS)/1e6)
	}
	fmt.Fprintf(os.Stderr, "nettrailsdist: parity %s over %d nodes at %v procs\n",
		report.Parity, report.DigestNodes, procs)
}
