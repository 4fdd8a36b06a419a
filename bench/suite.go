package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// child runs one workload in a process of its own (a fresh heap, so
// set-up time and peak RSS mean the same in every run) and parses the
// JSON line it prints last.
func child(name string, seed int64, seconds float64, trace int, outDir string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--out", outDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", name, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res runResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s (trace %d): last line is not a result: %w", name, trace, err)
	}
	return &res, nil
}

// environment is recorded with every suite report, so a run taken on a
// different box or a busy host can be recognised instead of argued about.
type environment struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	StoreFS    string  `json:"store_fs"`
}

func currentEnvironment(seed int64, seconds float64) environment {
	commit := "unknown" // a checkout made by git archive has no history
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		Commit: commit, Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: seed, Seconds: seconds, StoreFS: fsType("."),
	}
}

func workloadNames(only string) []string {
	if only != "" {
		return []string{only}
	}
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}

// runSuite runs every workload untraced and then traced, one child
// each, prints both metric tables and writes the report to outDir.
func runSuite(seed int64, seconds float64, outDir string) error {
	env := currentEnvironment(seed, seconds)
	fmt.Printf("commit %s  %s  GOMAXPROCS=%d nproc=%d  seed=%d  window=%gs  store fs=%s\n",
		env.Commit, env.Go, env.GOMAXPROCS, env.NumCPU, env.Seed, env.Seconds, env.StoreFS)
	type report struct {
		EndToEnd *runResult `json:"end_to_end"`
		PerLayer *runResult `json:"per_layer"`
	}
	reports := map[string]report{}
	names := workloadNames("")
	for _, name := range names {
		e2e, err := child(name, seed, seconds, 0, outDir)
		if err != nil {
			return err
		}
		layers, err := child(name, seed, seconds, 1, outDir)
		if err != nil {
			return err
		}
		reports[name] = report{e2e, layers}
	}

	header := fmt.Sprintf("%-30s %-6s", "metric", "unit")
	for _, name := range names {
		header += fmt.Sprintf(" %19s", name)
	}
	fmt.Println(header)
	row := func(metric, unit string, pick func(report) *runResult) {
		line := fmt.Sprintf("%-30s %-6s", metric, unit)
		for _, name := range names {
			line += fmt.Sprintf(" %19.4f", pick(reports[name]).Metrics[metric].Value)
		}
		fmt.Println(line)
	}
	for _, m := range e2eSpecs {
		row(m.Name, m.Unit, func(r report) *runResult { return r.EndToEnd })
	}
	line := fmt.Sprintf("%-30s %-6s", "ops / failed", "count")
	for _, name := range names {
		line += fmt.Sprintf(" %19s", fmt.Sprintf("%d / %d", reports[name].EndToEnd.Attempted, reports[name].EndToEnd.Failed))
	}
	fmt.Println(line)
	for _, m := range layerSpecs {
		row(m.Name, m.Unit, func(r report) *runResult { return r.PerLayer })
	}

	doc, err := json.MarshalIndent(struct {
		Environment environment       `json:"environment"`
		Workloads   map[string]report `json:"workloads"`
	}{env, reports}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "suite.json"), append(doc, '\n'), 0o644)
}

// runNoiseCheck runs `sets` sets of `repeat` untraced runs of the same
// code (run i of every set uses seed+i, as the acceptance check varies
// the seed) and compares, per workload and end-to-end metric, each
// set's median with the first set's. A metric fails when a later median
// is worse than the first by more than its bound, or when the spread
// inside a set (interquartile distance over median) exceeds the bound.
func runNoiseCheck(only string, seed int64, seconds float64, repeat, sets int) error {
	if repeat < 3 || sets < 2 {
		return fmt.Errorf("noise check needs -repeat >= 3 and -sets >= 2")
	}
	env := currentEnvironment(seed, seconds)
	fmt.Printf("commit %s  %s  GOMAXPROCS=%d nproc=%d  seeds=%d..%d  window=%gs  store fs=%s\n",
		env.Commit, env.Go, env.GOMAXPROCS, env.NumCPU, seed, seed+int64(repeat)-1, seconds, env.StoreFS)
	names := workloadNames(only)
	// values[workload][metric][set] holds that set's runs.
	values := map[string]map[string][][]float64{}
	for _, name := range names {
		values[name] = map[string][][]float64{}
		for _, m := range e2eSpecs {
			values[name][m.Name] = make([][]float64, sets)
		}
	}
	for set := 0; set < sets; set++ {
		for i := 0; i < repeat; i++ {
			for _, name := range names {
				res, err := child(name, seed+int64(i), seconds, 0, "")
				if err != nil {
					return err
				}
				for _, m := range e2eSpecs {
					values[name][m.Name][set] = append(values[name][m.Name][set], res.Metrics[m.Name].Value)
				}
			}
		}
	}

	breaches := 0
	fmt.Printf("%-20s %-16s %12s %12s %8s %8s %8s\n", "workload", "metric", "median[1]", "median[n]", "worse", "spread", "bound")
	for _, name := range names {
		for _, m := range e2eSpecs {
			runs := values[name][m.Name]
			first := median(runs[0])
			for set := 1; set < sets; set++ {
				later := median(runs[set])
				worse := (later - first) / first
				if m.Better == "higher" {
					worse = -worse
				}
				widest := 0.0
				for _, r := range runs[:set+1] {
					widest = max(widest, spread(r))
				}
				verdict := ""
				if worse > m.Bound || (m.Name != "setup_s" && widest > m.Bound) {
					verdict = "  EXCEEDS"
					breaches++
				}
				fmt.Printf("%-20s %-16s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%%%s\n",
					name, m.Name, first, later, 100*worse, 100*widest, 100*m.Bound, verdict)
			}
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metric comparisons exceed their bound", breaches)
	}
	return nil
}
