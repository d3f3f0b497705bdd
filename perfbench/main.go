// Command perfbench is the repository's benchmark.  It runs one
// workload through the public experiments.NewEnv / dmtcp.System /
// sim.Engine calls, checks the workload's output, and reports every
// metric by name and unit on two clocks: virtual time from the model
// and host time the simulator costs to run.  See README.md.
//
//	perfbench --workload mpi-mg --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  --trace 0 reports the
// end-to-end metrics from untraced runs; --trace 1 reports the
// per-layer metrics from a run with the tracer and a CPU profile on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: mpi-mg, store-failover or coord-ha")
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 20, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed n --seconds n --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	// The simulator runs one virtual thread at a time, handing control
	// between goroutines.  One P keeps the figures independent of the
	// machine's core count and charges the garbage collector's work to
	// host_wall_s instead of hiding it on an idle core.
	const procs = 1
	runtime.GOMAXPROCS(procs)

	r := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	fmt.Printf("%s: %s\n", w.name, w.why)
	r.print(os.Stdout, procs)
	if err := json.NewEncoder(os.Stdout).Encode(r.result()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	clock string // "virtual", "host" or "" for counts of operations
	note  string
}

// report is one benchmark run's outcome.
type report struct {
	workload  string
	seed      int64
	passes    int
	attempted int
	failed    int
	problems  []string // correctness failures: wrong output, nondeterminism
	notes     []string // failed operations
	metrics   []metric
}

func (r *report) add(name string, v float64, unit, clock, note string) {
	r.metrics = append(r.metrics, metric{name, v, unit, clock, note})
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *report) result() jsonResult {
	out := jsonResult{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range r.metrics {
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	return out
}

// print writes the human report: every metric with unit and clock,
// the run's shape, failed operations and correctness problems.
func (r *report) print(f *os.File, procs int) {
	fmt.Fprintf(f, "workload %s  seed %d  GOMAXPROCS %d  warm-up 1 pass  measured %d passes × %d trials\n",
		r.workload, r.seed, procs, r.passes, trialsPerPass)
	for _, m := range r.metrics {
		clock := m.clock
		if clock == "" {
			clock = "-"
		}
		fmt.Fprintf(f, "  %-22s %14.6f %-6s %-8s %s\n", m.name, m.value, m.unit, clock, m.note)
	}
	fmt.Fprintf(f, "operations: %d attempted, %d failed\n", r.attempted, r.failed)
	for _, n := range dedupe(r.notes) {
		fmt.Fprintf(f, "  failed: %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(f, "  INCORRECT: %s\n", p)
	}
}

// dedupe collapses repeated notes into "note (×n)", keeping order.
func dedupe(xs []string) []string {
	count := map[string]int{}
	var order []string
	for _, x := range xs {
		if count[x] == 0 {
			order = append(order, x)
		}
		count[x]++
	}
	out := make([]string, 0, len(order))
	for _, x := range order {
		if count[x] > 1 {
			x = fmt.Sprintf("%s (×%d)", x, count[x])
		}
		out = append(out, x)
	}
	return out
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs with at least ten samples
// beyond it, and that percentile.  Below 20 samples that percentile
// would not reach the median, so it returns the maximum (percentile
// 100) instead.
func tail(xs []float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 20 {
		return s[n-1], 100
	}
	return s[n-11], 100 * (n - 10) / n
}
