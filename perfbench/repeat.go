package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
)

// repeatMain runs each chosen workload k times, each run a fresh process
// with its own seed, and prints every metric's median, quartiles and
// spread (the quartile distance as a share of the median). For the
// end-to-end metrics it also prints the bound the spreads support: three
// times the spread, rounded up to a multiple of 0.05, at least 0.05 and at
// most 0.25.
func repeatMain(args []string) error {
	fs := flag.NewFlagSet("perfbench repeat", flag.ContinueOnError)
	k := fs.Int("k", 10, "runs per workload")
	seconds := fs.Int("seconds", 10, "run length passed to every run")
	trace := fs.Int("trace", 0, "trace flag passed to every run")
	seed0 := fs.Uint64("seed", defaultSeed, "seed of the first run; run i uses seed+i")
	names := fs.String("workloads", "", "comma-separated workloads (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	chosen := workloads
	if *names != "" {
		chosen = nil
		for _, n := range strings.Split(*names, ",") {
			w, ok := findWorkload(n)
			if !ok {
				return fmt.Errorf("unknown workload %q", n)
			}
			chosen = append(chosen, w)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range chosen {
		values := map[string][]float64{}
		units := map[string]string{}
		var attempted, failed int
		allCorrect := true
		for i := 0; i < *k; i++ {
			seed := *seed0 + uint64(i)
			res, err := runChild(self, w.name, seed, *seconds, *trace)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			allCorrect = allCorrect && res.Correct
			attempted += res.Attempted
			failed += res.Failed
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		fmt.Printf("\n%s: %d runs, correct=%v, failed %d of %d ops\n", w.name, *k, allCorrect, failed, attempted)
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tspread\tbound\t")
		for _, name := range sortedKeys(values) {
			xs := values[name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / math.Abs(med)
			}
			bound := "-"
			if *trace == 0 {
				bound = strconv.FormatFloat(boundFor(spread), 'f', 2, 64)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.3f\t%s\t\n", name, units[name], med, q1, q3, spread, bound)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// boundFor is the regression bound a metric's run-to-run spread supports.
func boundFor(spread float64) float64 {
	b := math.Ceil(3*spread/0.05) * 0.05
	return math.Min(0.25, math.Max(0.05, b))
}

// runChild runs one benchmark invocation in a child process and parses the
// result line.
func runChild(self, workload string, seed uint64, seconds, trace int) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	// A child must not outlive an interrupted repeat.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("parse result: %w", err)
	}
	if trace == 1 {
		// The traced run's summary goes to stderr; keep its overhead line.
		for _, l := range strings.Split(stderr.String(), "\n") {
			if strings.HasPrefix(l, "tracing overhead") {
				fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", workload, seed, l)
			}
		}
	}
	return &res, nil
}
