// Command perfbench is Khazana's benchmark: four closed-loop workloads
// driven through the public API (khazana.Node, khazana.Client, kfs), each
// checked against a model computed apart from the program.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench repeat [-k 10] [-seconds 10] [-trace 0] [-workloads a,b]
//
// A run prints one JSON object as the last line of its standard output:
// whether every output check passed, the ops attempted and failed, and
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// workRoot is where runs keep store directories and span files, relative
// to the directory the benchmark runs from.
var workRoot = filepath.Join(".bench_build", "perfbench")

// defaultSeed is the workload seed used when --seed is not given.
const defaultSeed = 1

func main() {
	if len(os.Args) > 1 && os.Args[1] == "repeat" {
		if err := repeatMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench repeat:", err)
			os.Exit(1)
		}
		return
	}
	if err := runMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Uint64("seed", defaultSeed, "workload seed; only the generated inputs depend on it")
	seconds := fs.Int("seconds", 10, "run length; sizes the fixed op count")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	workDir := filepath.Join(workRoot, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	res, err := run(context.Background(), config{
		workload: w,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workDir:  workDir,
		report:   os.Stderr,
	})
	if err != nil {
		return err
	}
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "failure:", e)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
