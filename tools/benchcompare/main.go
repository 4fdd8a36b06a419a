// benchcompare runs the BENCHMARK.json benchmark on two commits and
// says whether the change is worse than its base: the gate behind
// `make bench-compare BASE=<ref>`.
//
// The change is the working tree the command runs in. The base is
// `git archive <ref>` unpacked under .bench_build/base-<sha>/, so each
// side builds its own bench/ against its own source with its own build
// cache, exactly as `bash bench/run.sh` does in a fresh checkout. For
// every workload it runs -pairs pairs of single runs, pair i on seed
// i+1, alternating which side goes first so drift in the host lands on
// both. It prints each end-to-end metric's runs and medians side by
// side and exits non-zero when a median is worse than the base's by
// more than the metric's bound in BENCHMARK.json, or when a larger
// share of operations failed.
//
// With -claim <metric> it also judges a gain: it exits zero only when,
// on top of the above, the change is ahead on that metric in at least
// nine tenths of the pairs (ties count for neither side) and its median
// is better than the base's by more than the base's own inter-quartile
// range. A claim names its workload and needs -pairs 10 or more.
//
// Usage: benchcompare -base <ref> [-workload name] [-pairs n] [-claim metric]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the gate reads.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the JSON line a single run prints last on standard output.
type result struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	base := flag.String("base", "", "git ref of the commit to compare the working tree against")
	workload := flag.String("workload", "", "run only this workload (default: every workload in BENCHMARK.json)")
	pairs := flag.Int("pairs", 2, "base/change pairs per workload; pair i runs on seed i+1")
	claim := flag.String("claim", "", "end-to-end metric the change claims to improve on -workload (needs -pairs >= 10)")
	flag.Parse()
	if *base == "" || *pairs < 1 {
		fail("usage: benchcompare -base <ref> [-workload name] [-pairs n] [-claim metric]")
	}
	if *claim != "" && (*workload == "" || *pairs < 10) {
		fail("-claim needs -workload and -pairs >= 10")
	}

	var sp spec
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fail("%v (run from the repository root)", err)
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		fail("BENCHMARK.json: %v", err)
	}
	var workloads []string
	for _, w := range sp.Workloads {
		if *workload == "" || *workload == w.Name {
			workloads = append(workloads, w.Name)
		}
	}
	if len(workloads) == 0 {
		fail("no workload %q in BENCHMARK.json", *workload)
	}
	var claimed metric
	for _, m := range sp.EndToEnd {
		if m.Name == *claim {
			claimed = m
		}
	}
	if *claim != "" && claimed.Name == "" {
		fail("no end-to-end metric %q in BENCHMARK.json", *claim)
	}

	baseDir, sha := checkoutBase(*base)
	fmt.Printf("base %s (%s) vs working tree, %d pairs, %gs per run\n", *base, sha, *pairs, sp.RunSeconds)

	worse := false
	for _, w := range workloads {
		var baseRuns, changeRuns []result
		for i := 0; i < *pairs; i++ {
			sides := []struct {
				dir  string
				runs *[]result
			}{{baseDir, &baseRuns}, {".", &changeRuns}}
			if i%2 == 1 {
				sides[0], sides[1] = sides[1], sides[0]
			}
			for _, s := range sides {
				*s.runs = append(*s.runs, runOnce(s.dir, w, i+1, sp.RunSeconds))
			}
		}
		if report(w, sp.EndToEnd, baseRuns, changeRuns) {
			worse = true
		}
		if *claim != "" {
			ok, why := gain(claimed, values(baseRuns, *claim), values(changeRuns, *claim))
			verdict := "NOT MET"
			if ok {
				verdict = "met"
			} else {
				worse = true
			}
			fmt.Printf("claim %s on %s: %s (%s)\n", *claim, w, verdict, why)
		}
	}
	if worse {
		os.Exit(1)
	}
}

// checkoutBase unpacks ref under .bench_build/ (once per commit) and
// returns the directory and the short commit id.
func checkoutBase(ref string) (dir, sha string) {
	out, err := exec.Command("git", "rev-parse", "--verify", "--short=12", ref+"^{commit}").Output()
	if err != nil {
		fail("git rev-parse %s: %v", ref, err)
	}
	sha = strings.TrimSpace(string(out))
	dir = filepath.Join(".bench_build", "base-"+sha)
	if _, err := os.Stat(filepath.Join(dir, "bench", "run.sh")); err == nil {
		return dir, sha
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail("%v", err)
	}
	archive := exec.Command("git", "archive", sha)
	untar := exec.Command("tar", "-x", "-C", dir)
	untar.Stdin, err = archive.StdoutPipe()
	if err != nil {
		fail("%v", err)
	}
	untar.Stderr = os.Stderr
	archive.Stderr = os.Stderr
	if err := untar.Start(); err != nil {
		fail("tar: %v", err)
	}
	if err := archive.Run(); err != nil {
		fail("git archive %s: %v", sha, err)
	}
	if err := untar.Wait(); err != nil {
		fail("tar: %v", err)
	}
	return dir, sha
}

// runOnce is BENCHMARK.json's command in dir: one untraced run of one
// workload. The run's commentary (standard error) is shown only when
// the run cannot be used.
func runOnce(dir, workload string, seed int, seconds float64) result {
	cmd := exec.Command("bash", "bench/run.sh",
		"--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil || r.Attempted == 0 {
		os.Stderr.Write(stderr.Bytes())
		fail("%s: %s seed %d printed no result (%v, %v)", dir, workload, seed, runErr, err)
	}
	// A run with failed ops exits non-zero but still reports; the
	// failed share below is what judges it.
	return r
}

// report prints one workload's table and reports whether the change is
// worse: a median beyond its bound, or a larger failed share.
func report(workload string, metrics []metric, base, change []result) (worse bool) {
	fmt.Printf("\n%s\n", workload)
	fmt.Printf("| %-16s | %12s | %13s | %8s | %6s | %-5s | runs: base / change |\n", "metric", "base median", "change median", "change", "bound", "")
	fmt.Println("|---|---:|---:|---:|---:|---|---|")
	for _, m := range metrics {
		b, c := values(base, m.Name), values(change, m.Name)
		bm, cm := median(b), median(c)
		delta := (cm - bm) / bm
		if bm == cm {
			delta = 0
		}
		by := delta // how much worse, as a share of the base
		if m.Better == "higher" {
			by = -delta
		}
		verdict := "ok"
		if by > m.Bound {
			verdict = "WORSE"
			worse = true
		}
		fmt.Printf("| %-16s | %12.4g | %13.4g | %+7.1f%% | %5.0f%% | %-5s | %s / %s |\n",
			m.Name, bm, cm, 100*delta, 100*m.Bound, verdict, list(b), list(c))
	}
	bf, cf := failedShare(base), failedShare(change)
	verdict := "ok"
	if cf > bf {
		verdict = "WORSE"
		worse = true
	}
	fmt.Printf("| %-16s | %12.4g | %13.4g | %8s | %6s | %-5s | |\n", "failed share", bf, cf, "", "", verdict)
	return worse
}

// gain is the rule for claiming an improvement of m from paired runs
// (base[i] and change[i] ran back to back on one seed): the change wins
// at least nine tenths of the pairs, a tie counting for neither side,
// and the medians differ, in m's better direction, by more than the
// spread of the base's own runs — the distance between their quartiles.
func gain(m metric, base, change []float64) (ok bool, why string) {
	if len(base) != len(change) || len(base) == 0 {
		return false, fmt.Sprintf("%d base runs against %d change runs", len(base), len(change))
	}
	sign := 1.0 // positive differences are improvements
	if m.Better != "higher" {
		sign = -1
	}
	wins := 0
	for i := range base {
		if sign*(change[i]-base[i]) > 0 {
			wins++
		}
	}
	ahead := sign * (median(change) - median(base))
	iqr := quantile(base, 0.75) - quantile(base, 0.25)
	why = fmt.Sprintf("ahead in %d of %d pairs, median better by %.4g against a base inter-quartile range of %.4g",
		wins, len(base), ahead, iqr)
	return 10*wins >= 9*len(base) && ahead > iqr, why
}

func values(runs []result, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile interpolates linearly between the two nearest order
// statistics.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo == len(s)-1 {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func failedShare(runs []result) float64 {
	failed, attempted := 0, 0
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(attempted)
}

func list(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return strings.Join(parts, " ")
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchcompare: "+format+"\n", args...)
	os.Exit(1)
}
