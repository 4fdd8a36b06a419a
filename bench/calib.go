package main

import (
	"crypto/sha1"
	"encoding/json"
	"strconv"
	"time"
)

// The box this benchmark runs on changes speed under it: identical runs
// minutes apart differ by a factor of 1.5 to 2, on every workload at
// once, in CPU time as much as in wall time, with little or no steal
// reported — the cores themselves run slower while a neighbour is busy.
// A time measured on such a box says more about the minute it was taken
// in than about the code. So everything that is timed — the ops of a
// window and the steps of a set-up — is interleaved with a calibration
// kernel: a fixed mix of the kinds of work the system does (hashing, map
// traffic, small allocations, pointer chasing, JSON encoding) written
// against the standard library only, so no change to the repository can
// move it. One sample is taken after every calibEvery of measured time,
// and times are reported scaled to the speed at which the kernel takes
// calibNominalMS. Over ten runs of each workload while the box drifted
// between 0.95x and 1.5x, raw medians spread (interquartile ÷ median) by
// 13-31% and scaled ones by 3-12%. The unscaled times and the factors go
// to standard error.

const (
	// calibNominalMS is the kernel's time on the reference box (2 cores,
	// Xeon 2.1 GHz) when it is quiet. It only fixes the unit of the scaled
	// times: changing it rescales every timing metric alike.
	calibNominalMS = 2.3
	// calibEvery is how much time passes between two kernel samples (the
	// kernel then costs about 5% of what it measures).
	calibEvery = 40 * time.Millisecond
)

type calibNode struct {
	Key   string       `json:"key"`
	Sum   [20]byte     `json:"sum"`
	Kids  []*calibNode `json:"kids,omitempty"`
	Count int          `json:"count"`
}

var calibSink int

// calibKernel does a fixed amount of work and returns how long it took.
func calibKernel() time.Duration {
	t0 := time.Now()
	const n = 3000
	// Hash small records and index them by a string key.
	index := make(map[string]*calibNode, 64)
	nodes := make([]*calibNode, 0, n)
	var rec [64]byte
	for i := 0; i < n; i++ {
		for j := range rec {
			rec[j] = byte(i + j)
		}
		nd := &calibNode{Key: "k" + strconv.Itoa(i*7919%n), Sum: sha1.Sum(rec[:]), Count: i}
		index[nd.Key] = nd
		nodes = append(nodes, nd)
	}
	// Link them into a tree (node i under node i/4) by looking parents up
	// by key, then walk it.
	for i := 1; i < n; i++ {
		parent := index["k"+strconv.Itoa((i/4)*7919%n)]
		parent.Kids = append(parent.Kids, nodes[i])
	}
	var walk func(nd *calibNode) int
	walk = func(nd *calibNode) int {
		total := nd.Count + int(nd.Sum[0])
		for _, k := range nd.Kids {
			total += walk(k)
		}
		return total
	}
	calibSink += walk(nodes[0])
	// Encode a slice of it the way the API encodes a proof.
	flat := make([]calibNode, 300)
	for i := range flat {
		flat[i] = calibNode{Key: nodes[i].Key, Sum: nodes[i].Sum, Count: nodes[i].Count}
	}
	b, err := json.MarshalIndent(flat, "", "  ")
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	calibSink += len(b)
	return time.Since(t0)
}

// calibSample is one kernel run, in milliseconds.
func calibSample() float64 { return ms(calibKernel()) }

// calibCost is what one kernel run allocates, measured once, so that a
// window can leave the kernel out of its allocation counts.
var calibCost = func() memCount {
	calibKernel() // first run: one-off growth
	m0 := readMem()
	calibKernel()
	m1 := readMem()
	return memCount{m1.mallocs - m0.mallocs, m1.bytes - m0.bytes}
}()

// calibClock interleaves kernel samples with the work being timed.
// Callers tick it wherever they hold control between two calls into the
// system; it samples when calibEvery has passed. A nil clock does nothing.
type calibClock struct {
	samples []float64 // every sample so far, ms
	last    time.Time // when the latest sample ended
	scaled  float64   // seconds of work between the samples, at nominal speed
}

func newCalibClock() *calibClock {
	return &calibClock{samples: []float64{calibSample()}, last: time.Now()}
}

func (c *calibClock) tick() {
	if c != nil && time.Since(c.last) >= calibEvery {
		c.sample()
	}
}

// sample closes the stretch of work since the previous sample and adds
// it to scaled, divided by the mean of the two samples around it: the
// box's speed changes within seconds, so a stretch is scaled by what the
// kernel took right before and right after it, not by a run-wide factor.
func (c *calibClock) sample() {
	stretch := time.Since(c.last).Seconds()
	prev := c.samples[len(c.samples)-1]
	s := calibSample()
	c.scaled += stretch / ((prev + s) / 2 / calibNominalMS)
	c.samples = append(c.samples, s)
	c.last = time.Now()
}

// lap samples now and returns the scaled seconds of work since the clock
// was made.
func (c *calibClock) lap() float64 {
	if c == nil {
		return 0
	}
	c.sample()
	return c.scaled
}

// factor is how much slower than nominal the box ran over the samples
// taken from index from on.
func (c *calibClock) factor(from int) float64 {
	return median(c.samples[from:]) / calibNominalMS
}
