// Command mcbench is the repository's end-to-end benchmark. It runs the
// workloads users of this repository run — a fleet conformance (CTS)
// campaign, the tuning study with a cold and with a warm result cache,
// and the campaign server under two closed-loop clients — through the
// same public entry points the mcmutants CLI and server call. It checks
// every artifact against pinned digests or a locally computed oracle
// and prints the metrics of NOTES.md by name and unit; the last line of
// standard output is one JSON object.
//
//	bash mcbench/run.sh --workload conformance --seed 1 --seconds 15 --trace 0
//	bash mcbench/run.sh --workload all --seed 1 --seconds 15 --trace 1
//
// With --trace 1 the storage, cache and HTTP seams are wrapped, the
// science layers are timed on a sample of the workload's own cells, and
// the per-layer metrics are reported instead of the end-to-end ones;
// the spans are written under .bench_build/trace/ when the run ends.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloadNames lists the workloads in the order --workload all runs them.
var workloadNames = []string{"conformance", "tune-cold", "tune-warm", "serve"}

// runLimit bounds one workload's run, set-up, checks and replay included.
const runLimit = 170 * time.Second

// Paths relative to the checkout root, where run.sh starts the benchmark.
const (
	// pinsPath holds the artifact digests pinned per workload and seed.
	pinsPath = "mcbench/pins.json"
	// workDir holds each run's checkpoints, caches and server state.
	workDir = ".bench_build/work"
	// traceDir receives the spans of --trace 1 runs.
	traceDir = ".bench_build/trace"
)

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "conformance, tune-cold, tune-warm, serve, or all")
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 15, "measured seconds per workload")
	trace := fl.Int("trace", 0, "1 runs the traced benchmark and reports the per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	} else if !known(*workload) {
		fmt.Fprintf(stderr, "mcbench: unknown workload %q (%s, all)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "mcbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	pins, err := loadPins(pinsPath)
	if err != nil {
		fmt.Fprintf(stderr, "mcbench: %v\n", err)
		return 1
	}

	var results []*outcome
	for _, name := range names {
		b := &bench{
			workload: name,
			seed:     *seed,
			seconds:  time.Duration(*seconds) * time.Second,
			dir:      filepath.Join(workDir, fmt.Sprintf("%s-%d", name, os.Getpid())),
			pins:     pins[name],
			log:      stderr,
		}
		if *trace == 1 {
			b.tr = newTracer()
		}
		o, err := b.run()
		if err != nil {
			fmt.Fprintf(stderr, "mcbench: %s: %v\n", name, err)
			return 1
		}
		if b.tr != nil {
			path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, *seed))
			if err := b.tr.write(path); err != nil {
				fmt.Fprintf(stderr, "mcbench: %s: write trace: %v\n", name, err)
				return 1
			}
			fmt.Fprintf(stderr, "mcbench: %s: spans written to %s\n", name, path)
			if o.fill != nil {
				path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d-fill.jsonl", name, *seed))
				if err := o.fill.write(path); err != nil {
					fmt.Fprintf(stderr, "mcbench: %s: write trace: %v\n", name, err)
					return 1
				}
			}
		}
		results = append(results, o)
	}
	return report(stdout, stderr, results)
}

func known(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// loadPins reads the artifact digests: workload → seed → hex SHA-256.
func loadPins(path string) (map[string]map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read pins: %w", err)
	}
	var pins map[string]map[string]string
	if err := json.Unmarshal(data, &pins); err != nil {
		return nil, fmt.Errorf("decode pins %s: %w", path, err)
	}
	return pins, nil
}

// jsonMetric is one metric of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints each metric by name and unit, then the JSON result as
// the last line. With several workloads the metric names carry the
// workload as a prefix. It returns the exit code: 1 when an output was
// wrong or an operation failed.
func report(stdout, stderr io.Writer, results []*outcome) int {
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, o := range results {
		for _, p := range o.problems {
			fmt.Fprintf(stderr, "mcbench: %s: WRONG OUTPUT: %s\n", o.workload, p)
		}
		res.Correct = res.Correct && len(o.problems) == 0 && o.failed == 0
		res.Attempted += o.attempted
		res.Failed += o.failed
		for _, m := range o.metrics {
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				fmt.Fprintf(stderr, "mcbench: %s: metric %s is %v\n", o.workload, m.name, m.value)
				return 1
			}
			name := m.name
			if len(results) > 1 {
				name = o.workload + "." + name
			}
			fmt.Fprintf(stdout, "%-12s %-30s %14s %s\n", o.workload, m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit)
			res.Metrics[name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "mcbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one workload's run.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	// dir holds this run's checkpoints, caches, artifacts and server
	// state; it is removed when the run ends.
	dir  string
	pins map[string]string
	// tr is nil on the untraced benchmark.
	tr  *tracer
	log io.Writer
}

// run executes the workload and derives its metrics.
func (b *bench) run() (*outcome, error) {
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	o := &outcome{workload: b.workload}
	var err error
	switch b.workload {
	case "conformance":
		err = b.conformance(ctx, o, defaultConformance)
	case "tune-cold":
		err = b.tune(ctx, o, tuneCold)
	case "tune-warm":
		err = b.tune(ctx, o, tuneWarm)
	case "serve":
		err = b.serve(ctx, o, defaultServe)
	}
	if err != nil {
		return nil, err
	}
	if b.tr != nil {
		o.metrics = perLayer(o, b.tr)
	} else {
		o.metrics = endToEnd(o)
	}
	return o, nil
}

// resetPeakRSS restarts the kernel's resident high-water mark, so the
// next peakRSSMiB covers only what ran in between. Where the kernel
// does not allow it, the mark keeps covering the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's resident high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
