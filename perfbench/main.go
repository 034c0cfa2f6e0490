// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload (lock, attack or service) for a fixed time on inputs generated
// from a seed, checks every output, and prints every metric with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":18,"failed":0,"metrics":{"op_ms_p50":{"value":412.3,"unit":"ms"},...}}
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload attack --seed 1 --seconds 35 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 prints the per-layer metrics: the run measures half its time
// untraced and half traced on the same inputs, reports the difference as
// trace.overhead_pct, and breaks the traced half down by layer. See
// README.md for the workloads and the metric map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// setupRepeats is how many times a run generates its inputs; setup_s is
// the median CPU time of one set-up, and every repeat must produce
// byte-identical inputs.
const setupRepeats = 3

// workload is one benchmark workload. setup generates the inputs (and
// any reference outputs) from the seed and returns a digest of them;
// measure runs the workload on the inputs of the last setup.
type workload interface {
	setup(seed int64) (digest string, err error)
	measure(seconds float64, rec *recorder) *measurement
	// tailPct is the tail percentile an untraced run prints. It is fixed
	// per workload so the figure keeps its meaning when a change alters
	// the sample count; it is the percentile the tail rule picks for the
	// workload's planned sample count.
	tailPct() float64
}

// measurement is what one measure call observed.
type measurement struct {
	// opSec holds each operation's time in seconds: CPU time for an
	// attack cell (see cpuSeconds), wall time for a job or a lock.
	opSec []float64
	tally tally
	// passes counts completed passes over the workload's operation list;
	// per-layer totals are reported per pass.
	passes int
	// rate is the workload's rate_per_s (see README.md).
	rate float64
	// perLayer holds the per-layer metrics the workload exercises (only
	// filled when measuring with a recorder).
	perLayer map[string]float64
}

func newMeasurement() *measurement {
	return &measurement{perLayer: map[string]float64{}}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: lock, attack or service")
	seed := flag.Int64("seed", 1, "workload seed; equal seeds give equal inputs")
	seconds := flag.Float64("seconds", 35, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	flag.Parse()

	var w workload
	switch *name {
	case "lock":
		w = &lockWorkload{}
	case "attack":
		w = &attackWorkload{}
	case "service":
		w = &serviceWorkload{}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want lock, attack or service)\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}

	correct := true
	var setupSec []float64
	var digest0 string
	for i := 0; i < setupRepeats; i++ {
		c0 := cpuSeconds()
		d, err := w.setup(*seed)
		setupSec = append(setupSec, cpuSeconds()-c0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			os.Exit(1)
		}
		if i == 0 {
			digest0 = d
		} else if d != digest0 {
			fmt.Fprintf(os.Stderr, "perfbench: setup %d generated different inputs than setup 0\n", i)
			correct = false
		}
	}

	res := result{Metrics: map[string]metricValue{}}
	var m *measurement
	if *trace == 0 {
		m = w.measure(*seconds, nil)
		res.Metrics["setup_s"] = metricValue{median(setupSec), "s"}
		res.Metrics["peak_rss_mb"] = metricValue{peakRSSMB(), "MB"}
		res.Metrics["success_ratio"] = metricValue{1 - m.tally.failedRatio(), "ratio"}
		res.Metrics["op_ms_p50"] = metricValue{1000 * median(m.opSec), "ms"}
		res.Metrics["rate_per_s"] = metricValue{m.rate, "1/s"}
		// The tail is printed, not gated: see README.md.
		fmt.Printf("# tail: p%g = %.4g ms over %d operations (the tail rule picks p%g)\n",
			w.tailPct(), 1000*percentile(m.opSec, w.tailPct()), len(m.opSec), tailPercentile(len(m.opSec)))
	} else {
		plain := w.measure(*seconds/2, nil)
		rec := newRecorder()
		m = w.measure(*seconds/2, rec)
		m.tally.merge(plain.tally)
		for k, v := range m.perLayer {
			res.Metrics[k] = metricValue{v, perLayerUnits[k]}
		}
		self := rec.selfTime()
		for _, l := range layers {
			res.Metrics["self_s."+l] = metricValue{self[l] / float64(max(m.passes, 1)), "s"}
		}
		res.Metrics["trace.overhead_pct"] = metricValue{100 * (median(m.opSec)/median(plain.opSec) - 1), "%"}
		// Layers the workload does not exercise read 0.
		for k, u := range perLayerUnits {
			if _, ok := res.Metrics[k]; !ok {
				res.Metrics[k] = metricValue{0, u}
			}
		}
	}
	res.Correct = correct && m.tally.correct()
	res.Attempted = m.tally.attempted
	res.Failed = m.tally.failed
	printResult(res, m)
	if !res.Correct {
		os.Exit(1)
	}
}

// printResult prints one human-readable line per metric, then the JSON
// result as the last line.
func printResult(res result, m *measurement) {
	fmt.Printf("# attempted=%d failed=%d (wrong=%d refused=%d missed_deadline=%d errors=%d) passes=%d\n",
		m.tally.attempted, m.tally.failed, m.tally.wrong, m.tally.refused, m.tally.late, m.tally.errored, m.passes)
	for _, n := range m.tally.notes {
		fmt.Printf("# failure: %s\n", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for k, v := range res.Metrics {
		// A metric with no samples (every operation failed) reads 0, so
		// the result stays valid JSON; failed says why.
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.Metrics[k] = metricValue{0, v.Unit}
		}
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-32s %14s %s\n", k, strconv.FormatFloat(res.Metrics[k].Value, 'g', 8, 64), res.Metrics[k].Unit)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
}

// cpuSeconds returns the CPU time, user and system, that the process has
// used so far. Set-up and attack cells are timed in CPU time: on a shared
// virtual machine the host takes the CPU away from the guest for varying
// stretches, which wall time counts and CPU time leaves out.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
