// Command slothbench regenerates the paper's evaluation artifacts (Figs.
// 5-13 and the appendix tables) from the reproduction. Run with -exp all
// for the complete evaluation, or name a single experiment:
//
//	slothbench -exp fig6
//	slothbench -exp fig9 -rtt 10ms
//	slothbench -exp appendix
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/dispatch"
)

// options carries every flag into run.
type options struct {
	exp       string
	rtt       time.Duration
	txns      int
	reps      int
	mergeOn   bool
	eqOnly    bool
	kind      dispatch.Kind
	kindSet   bool
	sessions  int
	workers   []int
	shards    []int
	visits    bool
	traceOut  string
	debugAddr string
	faults    []float64
	faultSeed uint64
}

func main() {
	var o options
	flag.StringVar(&o.exp, "exp", "all", "experiment: fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|appendix|ablation|merge|throughput|trace|faults|all")
	flag.DurationVar(&o.rtt, "rtt", 500*time.Microsecond, "round-trip latency for suite experiments")
	flag.IntVar(&o.txns, "txns", 500, "transactions per Fig. 13 workload")
	flag.IntVar(&o.reps, "reps", 25, "repetitions per Fig. 12 configuration")
	flag.BoolVar(&o.mergeOn, "merge", false, "enable the batch query-merge optimizer for suite experiments")
	families := flag.String("families", "all", "merge families when -merge is set: all (equality+aggregate+range) | eq (equality only, the PR 1 baseline)")
	dispatchFlag := flag.String("dispatch", "", "dispatch strategy: sync|async|shared (suite experiments; empty = sync, throughput compares all three unless set)")
	flag.IntVar(&o.sessions, "sessions", 0, "concurrent sessions for -exp throughput (0 = sweep 1,2,4,8)")
	workersFlag := flag.String("workers", "", "server DB worker queues for -exp throughput, comma-separated (empty = sweep 1,4)")
	shardsFlag := flag.String("shards", "", "database shard counts for -exp throughput, comma-separated (empty = unsharded; rendering is byte-identical at any count, only occupancy changes)")
	flag.BoolVar(&o.visits, "visits", true, "record a visit-log write per page load in -exp throughput (false = read-only replay; with -dispatch shared the output is byte-stable)")
	flag.StringVar(&o.traceOut, "traceout", "BENCH_trace.json", "Chrome trace-event JSON path for -exp trace (empty disables; load in Perfetto or chrome://tracing)")
	flag.StringVar(&o.debugAddr, "debugaddr", "", "serve net/http/pprof and expvar (the live cell's counters under /debug/vars key \"sloth\") on this address, e.g. localhost:6060 (empty disables)")
	faultsFlag := flag.String("faults", "", "injected transient-failure rates for -exp faults, comma-separated (empty = sweep 0,0.05,0.1,0.2; include 0 for the clean baseline)")
	flag.Uint64Var(&o.faultSeed, "faultseed", 1, "seed for the deterministic fault plane in -exp faults (same seed, same faults, same report)")
	flag.Parse()

	var ok bool
	o.kind, ok = dispatch.ParseKind(*dispatchFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "slothbench: unknown -dispatch %q\n", *dispatchFlag)
		os.Exit(1)
	}
	o.kindSet = *dispatchFlag != ""

	if *families != "all" && *families != "eq" {
		fmt.Fprintf(os.Stderr, "slothbench: unknown -families %q (want all or eq)\n", *families)
		os.Exit(1)
	}
	o.eqOnly = *families == "eq"

	var err error
	if o.workers, err = parseCounts(*workersFlag, "-workers"); err != nil {
		fmt.Fprintf(os.Stderr, "slothbench: %v\n", err)
		os.Exit(1)
	}
	if o.shards, err = parseCounts(*shardsFlag, "-shards"); err != nil {
		fmt.Fprintf(os.Stderr, "slothbench: %v\n", err)
		os.Exit(1)
	}

	if o.faults, err = parseRates(*faultsFlag); err != nil {
		fmt.Fprintf(os.Stderr, "slothbench: %v\n", err)
		os.Exit(1)
	}

	if o.debugAddr != "" {
		if err := serveDebug(o.debugAddr); err != nil {
			fmt.Fprintln(os.Stderr, "slothbench:", err)
			os.Exit(1)
		}
	}

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "slothbench:", err)
		os.Exit(1)
	}
}

// parseCounts parses a comma-separated positive count list; empty means
// "use the experiment's default".
func parseCounts(s, flagName string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad %s %q: want comma-separated positive counts", flagName, s)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseRates parses the comma-separated -faults rate list; empty means
// "use the experiment's default sweep".
func parseRates(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || r < 0 || r >= 1 {
			return nil, fmt.Errorf("bad -faults %q: want comma-separated rates in [0,1)", s)
		}
		out = append(out, r)
	}
	return out, nil
}

// serveDebug starts the diagnostics endpoint: net/http/pprof's handlers on
// the default mux plus an expvar key publishing the live throughput or
// faults cell (bench.Live: server counters, fault counts, queue-wait and
// page-latency quantiles), so a long run can be profiled and its counters
// watched live (`go tool pprof host:port/debug/pprof/profile`,
// `curl host:port/debug/vars`).
func serveDebug(addr string) error {
	expvar.Publish("sloth", expvar.Func(func() any {
		if snap, ok := bench.Live(); ok {
			return snap
		}
		return nil
	}))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debugaddr: %w", err)
	}
	fmt.Fprintf(os.Stderr, "slothbench: debug endpoint on http://%s/debug/pprof and /debug/vars\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			fmt.Fprintln(os.Stderr, "slothbench: debug server:", err)
		}
	}()
	return nil
}

func run(o options) error {
	exp, rtt := o.exp, o.rtt
	txns, reps := o.txns, o.reps
	mergeOn, eqOnly := o.mergeOn, o.eqOnly
	kind, kindSet := o.kind, o.kindSet
	sessions, workers, shards, visits := o.sessions, o.workers, o.shards, o.visits
	envs := map[bench.AppID]*bench.Env{}
	needEnv := func(id bench.AppID) (*bench.Env, error) {
		if env := envs[id]; env != nil {
			return env, nil
		}
		env, err := bench.NewEnv(id, 1)
		if err != nil {
			return nil, err
		}
		if mergeOn {
			if eqOnly {
				env.StoreCfg = bench.EqualityMergeConfig()
			} else {
				env.StoreCfg = bench.MergeConfig()
			}
		}
		env.StoreCfg.Dispatch = kind
		envs[id] = env
		return env, nil
	}

	suiteCDF := func(id bench.AppID) error {
		env, err := needEnv(id)
		if err != nil {
			return err
		}
		comps, err := env.RunSuite(rtt)
		if err != nil {
			return err
		}
		fmt.Print(bench.BuildCDF(id, comps).Format())
		return nil
	}

	experiments := map[string]func() error{
		"fig5": func() error { return suiteCDF(bench.Itracker) },
		"fig6": func() error { return suiteCDF(bench.OpenMRS) },
		"fig7": func() error {
			env, err := needEnv(bench.OpenMRS)
			if err != nil {
				return err
			}
			rep, err := bench.Throughput(env, []int{1, 2, 5, 10, 25, 50, 100, 200, 300, 400, 500, 600})
			if err != nil {
				return err
			}
			fmt.Print(rep.Format())
			return nil
		},
		"fig8": func() error {
			for _, id := range []bench.AppID{bench.Itracker, bench.OpenMRS} {
				env, err := needEnv(id)
				if err != nil {
					return err
				}
				comps, err := env.RunSuite(rtt)
				if err != nil {
					return err
				}
				fmt.Print(bench.TimeBreakdown(id, comps).Format())
			}
			return nil
		},
		"fig9": func() error {
			rtts := []time.Duration{500 * time.Microsecond, time.Millisecond, 10 * time.Millisecond}
			for _, id := range []bench.AppID{bench.Itracker, bench.OpenMRS} {
				env, err := needEnv(id)
				if err != nil {
					return err
				}
				rep, err := bench.NetworkScaling(env, rtts)
				if err != nil {
					return err
				}
				fmt.Print(rep.Format())
			}
			return nil
		},
		"fig10": func() error {
			for _, id := range []bench.AppID{bench.Itracker, bench.OpenMRS} {
				rep, err := bench.DBScaling(id, []int{1, 2, 4, 8, 16})
				if err != nil {
					return err
				}
				fmt.Print(rep.Format())
			}
			return nil
		},
		"fig11": func() error {
			fmt.Print(bench.PersistentMethods().Format())
			return nil
		},
		"fig12": func() error {
			rep, err := bench.OptimizationAblation(reps)
			if err != nil {
				return err
			}
			fmt.Print(rep.Format())
			return nil
		},
		"fig13": func() error {
			rep, err := bench.Overhead(txns)
			if err != nil {
				return err
			}
			fmt.Print(rep.Format())
			return nil
		},
		"appendix": func() error {
			for _, id := range []bench.AppID{bench.Itracker, bench.OpenMRS} {
				env, err := needEnv(id)
				if err != nil {
					return err
				}
				comps, err := env.RunSuite(rtt)
				if err != nil {
					return err
				}
				fmt.Print(bench.AppendixTable(id, comps))
			}
			return nil
		},
		"ablation": func() error {
			env, err := needEnv(bench.Itracker)
			if err != nil {
				return err
			}
			rep, err := bench.StoreAblation(env, []int{4, 16})
			if err != nil {
				return err
			}
			fmt.Print(rep.Format())
			return nil
		},
		"merge": func() error {
			for _, id := range []bench.AppID{bench.Itracker, bench.OpenMRS} {
				env, err := needEnv(id)
				if err != nil {
					return err
				}
				rep, err := bench.MergeAblation(env)
				if err != nil {
					return err
				}
				fmt.Print(rep.Format())
			}
			return nil
		},
		"throughput": func() error {
			counts := []int{1, 2, 4, 8}
			if sessions > 0 {
				counts = []int{sessions}
			}
			wlist := []int{1, 4}
			if len(workers) > 0 {
				wlist = workers
			}
			kinds := []dispatch.Kind{dispatch.KindSync, dispatch.KindAsync, dispatch.KindShared}
			if kindSet {
				kinds = []dispatch.Kind{kind}
			}
			for _, id := range []bench.AppID{bench.Itracker, bench.OpenMRS} {
				rep, err := bench.ConcurrentThroughput(id, bench.ThroughputOptions{
					Sessions: counts,
					Kinds:    kinds,
					Workers:  wlist,
					Shards:   shards,
					RTT:      rtt,
					Visits:   visits,
				})
				if err != nil {
					return err
				}
				fmt.Print(rep.Format())
			}
			return nil
		},
		"trace": func() error {
			rep, err := bench.TraceSuite(bench.TraceOptions{RTT: rtt, Out: o.traceOut})
			if err != nil {
				return err
			}
			fmt.Print(rep.Format())
			return nil
		},
		"faults": func() error {
			for _, id := range []bench.AppID{bench.Itracker, bench.OpenMRS} {
				rep, err := bench.FaultSweep(id, bench.FaultSweepOptions{
					Rates: o.faults,
					Seed:  o.faultSeed,
					RTT:   rtt,
				})
				if err != nil {
					return err
				}
				fmt.Print(rep.Format())
			}
			return nil
		},
	}

	if exp == "all" {
		for _, name := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "appendix", "ablation", "merge", "throughput"} {
			if err := experiments[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Println()
		}
		return nil
	}
	fn, ok := experiments[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return fn()
}
