// Command slothbench regenerates the paper's evaluation artifacts (Figs.
// 5-13 and the appendix tables) from the reproduction. Run with -exp all
// for the complete evaluation, or name a single experiment:
//
//	slothbench -exp fig6
//	slothbench -exp fig9 -rtt 10ms
//	slothbench -exp appendix
//
// Every report but Fig. 13 (host clock) and multi-session throughput cells
// (host scheduler) is a pure function of the code; testdata holds them at
// the default flags, TestExperimentsGolden compares them byte for byte, and
// `make golden` regenerates them.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/dispatch"
	"repro/internal/querystore"
)

// options carries every flag into run.
type options struct {
	exp       string
	rtt       time.Duration
	txns      int
	reps      int
	storeCfg  querystore.Config // the suite experiments' store: -merge, -families, -dispatch
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
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "slothbench: %v\n", err)
		os.Exit(1)
	}

	if o.debugAddr != "" {
		if err := serveDebug(o.debugAddr); err != nil {
			fmt.Fprintln(os.Stderr, "slothbench:", err)
			os.Exit(1)
		}
	}

	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "slothbench:", err)
		os.Exit(1)
	}
}

// parseFlags turns the command line into options. Malformed values exit 2
// through the flag package; values it parses but the experiments cannot use
// come back as an error naming the flag.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("slothbench", flag.ExitOnError)
	fs.StringVar(&o.exp, "exp", "all", "experiment: fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|appendix|ablation|merge|throughput|trace|faults|all")
	fs.DurationVar(&o.rtt, "rtt", 500*time.Microsecond, "round-trip latency for suite experiments")
	fs.IntVar(&o.txns, "txns", 500, "transactions per Fig. 13 workload")
	fs.IntVar(&o.reps, "reps", 25, "repetitions per Fig. 12 configuration")
	mergeOn := fs.Bool("merge", false, "enable the batch query-merge optimizer for suite experiments")
	families := fs.String("families", "all", "merge families when -merge is set: all (equality+aggregate) | eq (equality only)")
	dispatchFlag := fs.String("dispatch", "", "dispatch strategy: sync|async (suite experiments; empty = sync, throughput compares both unless set)")
	fs.IntVar(&o.sessions, "sessions", 0, "concurrent sessions for -exp throughput (0 = sweep 1,2,4,8)")
	workersFlag := fs.String("workers", "", "server DB worker queues for -exp throughput, comma-separated (empty = sweep 1,4)")
	shardsFlag := fs.String("shards", "", "database shard counts for -exp throughput, comma-separated (empty = unsharded; rendering is byte-identical at any count, only occupancy changes)")
	fs.BoolVar(&o.visits, "visits", true, "record a visit-log write per page load in -exp throughput (false = read-only replay; either way single-session cells are byte-stable run to run, multi-session cells are not)")
	fs.StringVar(&o.traceOut, "traceout", "BENCH_trace.json", "Chrome trace-event JSON path for -exp trace (empty disables; load in Perfetto or chrome://tracing)")
	fs.StringVar(&o.debugAddr, "debugaddr", "", "serve net/http/pprof and expvar (the live cell's counters under /debug/vars key \"sloth\") on this address, e.g. localhost:6060 (empty disables)")
	faultsFlag := fs.String("faults", "", "injected transient-failure rates for -exp faults, comma-separated (empty = sweep 0,0.05,0.1,0.2; include 0 for the clean baseline)")
	fs.Uint64Var(&o.faultSeed, "faultseed", 1, "seed for the deterministic fault plane in -exp faults (same seed, same faults, same report)")
	fs.Parse(args)

	switch {
	case o.rtt < 0:
		return o, fmt.Errorf("bad -rtt %v: want a latency >= 0", o.rtt)
	case o.txns < 1:
		return o, fmt.Errorf("bad -txns %d: want at least 1", o.txns)
	case o.reps < 1:
		return o, fmt.Errorf("bad -reps %d: want at least 1", o.reps)
	case o.sessions < 0:
		return o, fmt.Errorf("bad -sessions %d: want a count >= 1, or 0 to sweep 1,2,4,8", o.sessions)
	}

	var ok bool
	if o.kind, ok = dispatch.ParseKind(*dispatchFlag); !ok {
		return o, fmt.Errorf("unknown -dispatch %q", *dispatchFlag)
	}
	o.kindSet = *dispatchFlag != ""

	switch {
	case *families != "all" && *families != "eq":
		return o, fmt.Errorf("unknown -families %q (want all or eq)", *families)
	case *mergeOn && *families == "eq":
		o.storeCfg = bench.EqualityMergeConfig()
	case *mergeOn:
		o.storeCfg = bench.MergeConfig()
	}
	o.storeCfg.Dispatch = o.kind

	var err error
	if o.workers, err = parseCounts(*workersFlag, "-workers"); err != nil {
		return o, err
	}
	if o.shards, err = parseCounts(*shardsFlag, "-shards"); err != nil {
		return o, err
	}
	if o.faults, err = parseRates(*faultsFlag); err != nil {
		return o, err
	}
	return o, nil
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

// format renders a report or passes its error on.
func format[R interface{ Format() string }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Format(), nil
}

// run prints the experiment o.exp names to w.
func run(w io.Writer, o options) error {
	envs := map[bench.AppID]*bench.Env{}
	// onEnv renders one report from an application's environment, seeded
	// once per run and shared by every report that reads it.
	onEnv := func(id bench.AppID, report func(*bench.Env) (string, error)) (string, error) {
		env := envs[id]
		if env == nil {
			var err error
			if env, err = bench.NewEnv(id, 1, 1); err != nil {
				return "", err
			}
			env.StoreCfg = o.storeCfg
			envs[id] = env
		}
		return report(env)
	}
	// onSuite renders one report from an application's page suite, every
	// page loaded in both modes at -rtt.
	onSuite := func(id bench.AppID, report func([]bench.Comparison) string) (string, error) {
		return onEnv(id, func(env *bench.Env) (string, error) {
			comps, err := env.RunSuite(o.rtt)
			if err != nil {
				return "", err
			}
			return report(comps), nil
		})
	}
	// bothApps concatenates one report per application, itracker first.
	bothApps := func(report func(bench.AppID) (string, error)) (string, error) {
		var sb strings.Builder
		for _, id := range []bench.AppID{bench.Itracker, bench.OpenMRS} {
			s, err := report(id)
			if err != nil {
				return "", err
			}
			sb.WriteString(s)
		}
		return sb.String(), nil
	}
	cdf := func(id bench.AppID) (string, error) {
		return onSuite(id, func(comps []bench.Comparison) string { return bench.BuildCDF(id, comps).Format() })
	}

	experiments := map[string]func() (string, error){
		"fig5": func() (string, error) { return cdf(bench.Itracker) },
		"fig6": func() (string, error) { return cdf(bench.OpenMRS) },
		"fig7": func() (string, error) {
			return onEnv(bench.OpenMRS, func(env *bench.Env) (string, error) {
				return format(bench.Throughput(env, []int{1, 2, 5, 10, 25, 50, 100, 200, 300, 400, 500, 600}))
			})
		},
		"fig8": func() (string, error) {
			return bothApps(func(id bench.AppID) (string, error) {
				return onSuite(id, func(comps []bench.Comparison) string { return bench.TimeBreakdown(id, comps).Format() })
			})
		},
		"fig9": func() (string, error) {
			rtts := []time.Duration{500 * time.Microsecond, time.Millisecond, 10 * time.Millisecond}
			return bothApps(func(id bench.AppID) (string, error) {
				return onEnv(id, func(env *bench.Env) (string, error) { return format(bench.NetworkScaling(env, rtts)) })
			})
		},
		"fig10": func() (string, error) {
			return bothApps(func(id bench.AppID) (string, error) { return format(bench.DBScaling(id, []int{1, 2, 4, 8, 16})) })
		},
		"fig11": func() (string, error) { return bench.PersistentMethods().Format(), nil },
		"fig12": func() (string, error) { return format(bench.OptimizationAblation(o.reps)) },
		"fig13": func() (string, error) { return format(bench.Overhead(o.txns)) },
		"appendix": func() (string, error) {
			return bothApps(func(id bench.AppID) (string, error) {
				return onSuite(id, func(comps []bench.Comparison) string { return bench.AppendixTable(id, comps) })
			})
		},
		"ablation": func() (string, error) {
			store, err := onEnv(bench.Itracker, func(env *bench.Env) (string, error) {
				return format(bench.StoreAblation(env, []int{4, 16}))
			})
			if err != nil {
				return "", err
			}
			par, err := format(bench.ParallelBatchAblation(64))
			return store + par, err
		},
		"merge": func() (string, error) {
			return bothApps(func(id bench.AppID) (string, error) {
				return onEnv(id, func(env *bench.Env) (string, error) { return format(bench.MergeAblation(env)) })
			})
		},
		"throughput": func() (string, error) {
			counts := []int{1, 2, 4, 8}
			if o.sessions > 0 {
				counts = []int{o.sessions}
			}
			wlist := []int{1, 4}
			if len(o.workers) > 0 {
				wlist = o.workers
			}
			kinds := []dispatch.Kind{dispatch.KindSync, dispatch.KindAsync}
			if o.kindSet {
				kinds = []dispatch.Kind{o.kind}
			}
			return bothApps(func(id bench.AppID) (string, error) {
				return format(bench.ConcurrentThroughput(id, bench.ThroughputOptions{
					Sessions: counts,
					Kinds:    kinds,
					Workers:  wlist,
					Shards:   o.shards,
					RTT:      o.rtt,
					Visits:   o.visits,
				}))
			})
		},
		"trace": func() (string, error) {
			return format(bench.TraceSuite(bench.TraceOptions{RTT: o.rtt, Out: o.traceOut}))
		},
		"faults": func() (string, error) {
			return bothApps(func(id bench.AppID) (string, error) {
				return format(bench.FaultSweep(id, bench.FaultSweepOptions{Rates: o.faults, Seed: o.faultSeed, RTT: o.rtt}))
			})
		},
	}

	if o.exp == "all" {
		for _, name := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "appendix", "ablation", "merge", "throughput"} {
			out, err := experiments[name]()
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Fprintln(w, out)
		}
		return nil
	}
	fn, ok := experiments[o.exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", o.exp)
	}
	out, err := fn()
	if err != nil {
		return err
	}
	_, err = fmt.Fprint(w, out)
	return err
}
