// Command perfbench is the repository's end-to-end benchmark. It
// generates a workload from a seed, drives it through the Observatory
// spine by calling the public functions of sie, observatory, detect,
// tsv, transport, wal and webui, checks that the outputs are correct,
// and prints every metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads, each generated from simnet with the seed:
//
//   - steady: the default mix, replayed in-process from SIE bytes
//     through sie.Reader, the Summarizer, the sharded engine (standard
//     aggregations at the dnsobs default capacity, detection on), Put
//     into a columnar store, CascadeAll and Retention;
//   - flood: the same topology with an attack-heavy mix, so most names
//     are new;
//   - fleet: the steady stream sent as sequenced frames over one
//     loopback TCP connection to a transport.Collector journaling to a
//     WAL, and ingested from its channel once every frame is delivered;
//   - query: the seeded /api/query mix over a two-hour columnar store,
//     answered by webui and checked against a TSV-backend copy.
//
// Each round of an ingest workload makes a sharded pass, an analyst
// query burst against the fresh store, and a serial Pipeline pass (the
// single-threaded baseline); the query workload's rounds make a query
// batch, a re-cascade of the store, and the same two passes over the
// steady stream. Every pass is checked: the engine's accounting, every
// transaction accepted, and a store byte-identical to the reference.
//
// Untraced runs (-trace 0) report the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer metrics, measured by spans this
// package records around each call into a layer and by stage-isolated
// passes, and the tracing overhead. BENCHMARK.json at the repository
// root lists both sets.
//
// Run it from the repository root (perfbench/run.sh builds and runs it):
//
//	sh perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledger accumulates a run's metrics, operation counts and the first
// correctness failure. Reported metrics go into the result line; noted
// ones are printed only, because they are too unsteady from run to run
// on a shared machine to hold to a bound.
type ledger struct {
	metrics   map[string]metric
	noted     map[string]metric
	attempted uint64
	failed    uint64
	wrong     error
}

func newLedger() *ledger { return &ledger{metrics: map[string]metric{}, noted: map[string]metric{}} }

func (l *ledger) set(name, unit string, v float64) { l.metrics[name] = metric{v, unit} }

func (l *ledger) note(name, unit string, v float64) { l.noted[name] = metric{v, unit} }

// fail records a correctness failure; the first one is kept.
func (l *ledger) fail(err error) {
	if l.wrong == nil {
		l.wrong = err
	}
}

// count adds one operation's outcome.
func (l *ledger) count(attempted, failed uint64) {
	l.attempted += attempted
	l.failed += failed
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every generated input's rate; tests run at a
	// tiny scale, the benchmark at 1.
	scale float64
	// dir is the scratch directory for stores and journals.
	dir string
}

var workloads = map[string]func(*options, *ledger) error{
	"steady": runSteady,
	"flood":  runFlood,
	"fleet":  runFleet,
	"query":  runQuery,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: steady, flood, fleet or query")
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*wl]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload steady|flood|fleet|query, --seconds > 0, --trace 0|1")
		return 2
	}
	// Scratch space stays inside the checkout, under the build directory.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// Flush what earlier processes left (the build, a previous run's
	// deletions) before measuring, and this run's own deletions before
	// exiting: the filesystem may discard freed blocks at its next
	// journal commit, which would otherwise land inside a later
	// measurement.
	syscall.Sync()
	defer func() {
		os.RemoveAll(dir)
		syscall.Sync()
	}()
	dir, err = filepath.Abs(dir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o := &options{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1, dir: dir}
	l := newLedger()
	if err := fn(o, l); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return emit(l, stdout, stderr)
}

// emit prints one line per metric, noted ones marked, then the JSON
// result line.
func emit(l *ledger, stdout, stderr io.Writer) int {
	for _, set := range []struct {
		m    map[string]metric
		mark string
	}{{l.metrics, ""}, {l.noted, " (noted, not bounded)"}} {
		names := make([]string, 0, len(set.m))
		for n := range set.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(stdout, "%-44s %14.6g %s%s\n", n, set.m[n].Value, set.m[n].Unit, set.mark)
		}
	}
	fmt.Fprintf(stdout, "%-44s %14.6g ratio (%d of %d operations)\n", "failed_share",
		ratio(float64(l.failed), float64(l.attempted)), l.failed, l.attempted)
	if l.wrong != nil {
		fmt.Fprintln(stderr, "perfbench: INCORRECT:", l.wrong)
	}
	line, err := json.Marshal(report{
		Correct:   l.wrong == nil,
		Attempted: l.attempted,
		Failed:    l.failed,
		Metrics:   l.metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
