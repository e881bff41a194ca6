// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload through the real LiPS pipeline, checks the outputs, and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics.
//
//	e2ebench --workload swim400-6h-e1600 --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is a separate run that records spans around the public calls, profiles
// the run, and prints the per-layer metrics. README.md documents the
// workloads, the metrics and the layer entry functions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics, correctness failures and the operation tally
// of one benchmark run.
type report struct {
	metrics map[string]metric
	notes   map[string]string // e.g. which percentile a tail is, and of how many samples
	errs    []string
	tally   tally
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), notes: make(map[string]string)}
}

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// setQuantile records a percentile with the sample count it rests on.
func (r *report) setQuantile(name string, q quantile, unit string) {
	r.set(name, q.Value, unit)
	r.notes[name] = fmt.Sprintf("p%g of n=%d", q.P, q.N)
}

func (r *report) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig, r *report) error{
	"swim400-24h-e600":  func(cfg runConfig, r *report) error { return runBatch(swim24hE600, cfg, r) },
	"swim400-6h-e1600":  func(cfg runConfig, r *report) error { return runBatch(swim6hE1600, cfg, r) },
	"swim400-24h-delay": func(cfg runConfig, r *report) error { return runBatch(swim24hDelay, cfg, r) },
	"serve-open":        runServe,
}

// runConfig is one invocation's settings.
type runConfig struct {
	Seed    int64
	Budget  time.Duration // how long the measurement runs
	Traced  bool
	started time.Time
}

// remaining is the measurement time left.
func (c runConfig) remaining() time.Duration { return c.Budget - time.Since(c.started) }

// hardLimit is how long an invocation may take in all before it gives up
// with an error: an LP that stalls must not hang the caller.
const hardLimit = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 50, "measurement time in seconds")
		traced  = flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "e2ebench: want --workload one of %v, --seconds >= 1, --trace 0|1\n", names)
		os.Exit(2)
	}
	// Sample allocations finely enough that a layer allocating a few MB
	// per run shows; set before anything allocates much.
	runtime.MemProfileRate = 64 << 10
	go func() {
		time.Sleep(hardLimit)
		fmt.Fprintf(os.Stderr, "e2ebench: %s did not finish within %v\n", *name, hardLimit)
		os.Exit(1)
	}()

	cfg := runConfig{Seed: *seed, Budget: time.Duration(*seconds) * time.Second, Traced: *traced == 1, started: time.Now()}
	rep := newReport()
	if err := run(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if cfg.Traced {
		rep.set("failed_frac", rep.tally.frac(), "frac")
	}
	if rep.tally.Attempted == 0 {
		rep.fail("no operation was attempted")
	}
	for n, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.fail("metric %s is %v", n, m.Value)
			rep.metrics[n] = metric{Value: 0, Unit: m.Unit}
		}
	}
	for _, e := range rep.errs {
		fmt.Printf("CHECK FAILED: %s\n", e)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		line := fmt.Sprintf("%-26s %14.6g %s", n, m.Value, m.Unit)
		if note := rep.notes[n]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Println(line)
	}
	out, err := json.Marshal(result{
		Correct:   len(rep.errs) == 0,
		Attempted: rep.tally.Attempted,
		Failed:    rep.tally.Failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
