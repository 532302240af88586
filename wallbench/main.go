// Command wallbench is nowrender's wall-clock benchmark. Each invocation
// runs one workload in its own process through the program's public Go
// API, checks every output against an independent reference render, and
// prints one JSON result line:
//
//	wallbench -workload newton-fc -seed 1 -seconds 25 -trace 0
//
// Workloads:
//
//	newton-fc     the paper's Newton animation on a 2-worker TCP farm,
//	              frame coherence on (Table 1 column 8)
//	newton-plain  the same farm with coherence off (Table 1 column 4)
//	serve-mix     service.Service over loopback HTTP, two closed-loop
//	              clients mixing cold renders and cache-hit replays
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 it
// holds the per-layer metrics, prints the per-layer ledger and writes the
// benchmark's spans as Chrome trace JSON. -steady N runs every workload N
// times in alternating order and reports each metric's quartiles.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options configure one workload run. The zero fault fields are the
// benchmark proper; the tests set them to prove the checks bite.
type options struct {
	seed    int64
	seconds int
	traced  bool
	// traceOut is where the traced run writes its Chrome trace JSON.
	traceOut string
	// small shrinks every input for the benchmark's own smoke tests.
	small bool
	// corruptPixel flips one byte of one checked frame after delivery;
	// dropFrame discards one delivered frame. Both must surface as a
	// failed operation.
	corruptPixel, dropFrame bool
}

// run is the accumulating outcome of a workload: operations attempted
// and failed, the reasons for failures, and the metrics.
type run struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

func newRun() *run { return &run{metrics: map[string]metric{}} }

// op records one operation's outcome; a non-empty problem list fails it.
func (r *run) op(problems []string) {
	r.attempted++
	if len(problems) > 0 {
		r.failed++
		r.problems = append(r.problems, problems...)
	}
}

func (r *run) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

var workloads = map[string]func(options) (*run, error){
	"newton-fc":    func(o options) (*run, error) { return runFarm(o, true) },
	"newton-plain": func(o options) (*run, error) { return runFarm(o, false) },
	"serve-mix":    runServe,
}

// workloadNames lists the workloads in their canonical order.
var workloadNames = []string{"newton-fc", "newton-plain", "serve-mix"}

func main() {
	workload := flag.String("workload", "", "newton-fc | newton-plain | serve-mix")
	seed := flag.Int64("seed", 1, "input seed: picks the checked frames and the serve-mix scripts")
	seconds := flag.Int("seconds", 25, "nominal measured seconds; fixes the number of jobs a run performs")
	trace := flag.Int("trace", 0, "1 = per-layer run: ledger, spans and per-layer metrics")
	traceOut := flag.String("trace-out", "", "Chrome trace output of the traced run (default .bench_build/wallbench/<workload>-<seed>.trace.json)")
	steady := flag.Int("steady", 0, "run every workload this many times, alternating order, and report spreads")
	flag.Parse()

	if *steady > 0 {
		if err := runSteady(*steady, *seed, *seconds, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "wallbench:", err)
			os.Exit(1)
		}
		return
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "wallbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "wallbench: -seconds must be at least 1")
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: *seconds, traced: *trace == 1, traceOut: *traceOut}
	if opts.traced && opts.traceOut == "" {
		opts.traceOut = filepath.Join(".bench_build", "wallbench", fmt.Sprintf("%s-%d.trace.json", *workload, *seed))
	}
	r, err := fn(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(1)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "wallbench: check failed:", p)
	}
	out, err := json.Marshal(result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// jobCount converts the nominal run length into a fixed number of
// whole operations: a run does the same work whatever the machine's
// speed, so the work never depends on timing.
func jobCount(seconds int, nominal float64, floor int) int {
	n := int(math.Round(float64(seconds) / nominal))
	if n < floor {
		n = floor
	}
	return n
}

// abba reports whether step i of a traced run is a traced one, in the
// repeating order untraced, traced, traced, untraced.
func abba(i int) bool { return i%4 == 1 || i%4 == 2 }

// quantile returns the q-quantile of xs the way Python's
// statistics.quantiles does by default (the "exclusive" method: order
// statistic q·(n+1), interpolated and clamped to the sample), so the
// reported percentiles and the steadiness report's quartiles share one
// definition. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q*float64(len(s)+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(len(s)-1) {
		return s[len(s)-1]
	}
	lo := int(pos)
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// setupBatch times perBatch set-up cycles, each setting up once, tearing
// down again and returning how long its set-up alone took, and returns
// the mean set-up time. One set-up takes well under a millisecond, too
// short to repeat from run to run on its own, so a run times batches
// spread along its length and reports their median.
func setupBatch(perBatch int, cycle func() (time.Duration, error)) (float64, error) {
	runtime.GC()
	var sum time.Duration
	for i := 0; i < perBatch; i++ {
		d, err := cycle()
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum.Seconds() / float64(perBatch), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set (Linux reports
// Maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// totalAllocMB returns the bytes allocated by the process so far, in MB.
func totalAllocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / (1 << 20)
}
