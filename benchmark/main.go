// Command benchmark is the repository's benchmark: four closed-loop
// workloads on long-lived servers, end-to-end metrics on the host clock
// and the simulation's counters, and a separate traced run that times calls
// into each layer from outside. It builds its own deployments from the
// layers' public constructors and does not import internal/bench.
//
//	go run ./benchmark --workload pages_sloth --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// procs is the parallelism every run uses and reports: the benchmark box
// has two cores, and no workload has more than two clients.
const procs = 2

// config is one invocation.
type config struct {
	workload string
	seed     int64
	lim      limit
	rounds   int // fresh deployments per --trace 0 run (rounds; tests use 1)
	traceOut string
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// failures says why Correct is false; it goes to the error stream.
	failures []error
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{rounds: rounds}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: pages_sloth, pages_merge, sessions_rw or oltp_sloth")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs (page orders, transaction mix, TPC client streams)")
	fs.Float64Var(&cfg.lim.seconds, "seconds", 24, "how long to measure")
	fs.IntVar(&cfg.lim.passes, "passes", 0, "run exactly this many passes instead of --seconds (fixed work)")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics; 1 does the traced run and prints the per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with --trace 1, write the span log to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !knownWorkload(cfg.workload) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.lim.passes <= 0 && cfg.lim.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: --seconds must be positive")
		return 2
	}
	runtime.GOMAXPROCS(procs)

	var (
		res  result
		defs []metricDef
		err  error
	)
	if *trace == 0 {
		res, err = runEndToEnd(cfg)
		defs = endToEnd
	} else {
		res, err = runTraced(cfg)
		defs = perLayer
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d gomaxprocs %d attempted %d failed %d\n",
		cfg.workload, cfg.seed, procs, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-40s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, f)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// setup builds, checks and warms up a fresh deployment of the workload.
func setup(cfg config, tc *traceCfg) (instance, error) {
	if cfg.workload == wlOLTPSloth {
		return setupOLTP(cfg.seed, tc)
	}
	return setupPages(pageSpecs[cfg.workload], cfg.seed, tc)
}
