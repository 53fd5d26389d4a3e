// Command perfbench is the repository's benchmark: four seeded
// workloads driven through the public APIs of train, dataprep, dscache,
// collective and serve. An untraced run prints the end-to-end metrics;
// a traced run (--trace 1) prints the per-layer metrics. Either run
// fails (exit 1) when an output check or the kernel-replay oracle
// fails. See BENCHMARK.md.
//
//	perfbench --workload image-train --seed 1 --seconds 24 --trace 0
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
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"train_samples_per_sec", "1/s"},
	{"final_loss", "nats"},
	{"peak_rss_mb", "MB"},
	{"job_latency_p50_ms", "ms"},
	{"job_latency_p90_ms", "ms"},
	{"jobs_per_sec", "1/s"},
	{"slo_rate_jobs_per_sec", "1/s"},
}

// perLayer are the metrics of a traced run, in print order. A layer a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"storage.reads", "count/job"},
	{"storage.bytes_read", "B/job"},
	{"storage.read_us_p50", "us"},
	{"imgproc.decode_us", "us"},
	{"imgproc.crop_us", "us"},
	{"imgproc.mirror_us", "us"},
	{"imgproc.noise_us", "us"},
	{"imgproc.cast_us", "us"},
	{"dsp.pcm_decode_us", "us"},
	{"dsp.noise_us", "us"},
	{"dsp.logmel_us", "us"},
	{"dsp.mask_us", "us"},
	{"dsp.normalize_us", "us"},
	{"dataprep.sample_us_p50", "us"},
	{"dataprep.epoch_prepare_ms", "ms"},
	{"dataprep.allocs_per_sample", "count"},
	{"dscache.hit_ratio", "ratio"},
	{"dscache.decodes", "count/job"},
	{"dscache.evictions", "count/job"},
	{"dscache.singleflight_waits", "count/job"},
	{"train.prep_step_overlap", "ratio"},
	{"train.step_wait_ms", "ms"},
	{"train.extract_ms", "ms"},
	{"train.epoch_ms_p50", "ms"},
	{"nn.compute_ms_per_step", "ms"},
	{"collective.reduce_us_p50", "us"},
	{"collective.rounds", "count/job"},
	{"collective.bytes_moved", "B/job"},
	{"collective.ps_shard_retries", "count/job"},
	{"fpga.sample_us_p50", "us"},
	{"fpga.samples_prepared", "count/job"},
	{"preppool.pooled_share", "ratio"},
	{"preppool.migrations", "count/job"},
	{"preppool.rebalances", "count/job"},
	{"serve.submit_us_p50", "us"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p90", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.run_ms_p90", "ms"},
	{"serve.shed", "count/job"},
	{"serve.preemptions", "count/job"},
	{"serve.generator_lag_ms_max", "ms"},
	{"metrics.series", "count"},
	{"self.collective_share", "ratio"},
	{"self.nn_share", "ratio"},
	{"self.train_share", "ratio"},
	{"self.dataprep_share", "ratio"},
	{"trace.attributed_share", "ratio"},
	{"trace.overhead_pct", "%"},
}

var workloads = []string{"image-train", "audio-train", "cached-step-train", "serve-mixed"}

// setups is how many times a run sets its workload up; setup_s is the
// median. The first half run before the measured phase (the last of
// them is the one measured) and the rest after it, so one slow spell of
// the host does not slow every set-up of a run.
const setups = 6

// setupsBefore is how many of n set-ups run before the measured phase.
func setupsBefore(n int) int { return (n + 1) / 2 }

// options are one run's settings.
type options struct {
	seed        int64
	seconds     time.Duration
	trace       bool
	setups      int
	reduceDelay time.Duration
	traceOut    string // span file of a traced run
}

// report collects one workload run's metrics, sample counts, outcome
// tallies and notes.
type report struct {
	values    map[string]float64
	counts    map[string]int
	attempted int
	failed    int
	errs      []error
	notes     []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, counts: map[string]int{}}
}

// set records a metric with the number of samples behind it.
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

// attempt tallies operations: n attempted, failed of them failed.
func (r *report) attempt(n, failed int, errs ...error) {
	r.attempted += n
	r.failed += failed
	r.errs = append(r.errs, errs...)
}

// fail records a failed output check.
func (r *report) fail(err error) {
	r.attempted++
	r.failed++
	r.errs = append(r.errs, err)
}

// check runs one output check and records it if it fails.
func (r *report) check(name string, f func() error) {
	if err := f(); err != nil {
		r.fail(fmt.Errorf("%s: %w", name, err))
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finish prints the report's notes and metrics to w and returns the
// result line. A run is correct when nothing failed and every metric
// of defs is present and finite (and, untraced, non-zero).
func (r *report) finish(w io.Writer, workload string, defs []metricDef, traced bool) result {
	res := result{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metric{}}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%s: %s\n", workload, n)
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !traced && (!ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0)) {
			res.Correct = false
			r.errs = append(r.errs, fmt.Errorf("metric %s is missing or zero", d.name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%s: %-28s %14.4f %-9s (n=%d)\n", workload, d.name, v, d.unit, r.counts[d.name])
	}
	fmt.Fprintf(w, "%s: %-28s %14.4f %-9s (%d of %d)\n", workload, "failed_ratio", ratio(float64(r.failed), float64(res.Attempted)), "ratio", r.failed, res.Attempted)
	for _, err := range r.errs {
		fmt.Fprintf(w, "%s: FAIL %v\n", workload, err)
	}
	return res
}

// run executes one workload.
func run(ctx context.Context, workload string, opts options) (*report, error) {
	switch workload {
	case "image-train":
		return runTrain(ctx, imageTrainSpec(), opts)
	case "audio-train":
		return runTrain(ctx, audioTrainSpec(), opts)
	case "cached-step-train":
		return runTrain(ctx, cachedStepSpec(), opts)
	case "serve-mixed":
		return runServe(ctx, opts, nil)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", workload, workloads)
}

func main() {
	workload := flag.String("workload", "", "workload to run: image-train, audio-train, cached-step-train, serve-mixed, or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 24, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	delay := flag.Duration("inject-reduce-delay", 0, "delay added to every gradient reduce (attribution check)")
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	ok := true
	var last result
	for _, name := range names {
		opts := options{
			seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
			trace: *trace == 1, setups: setups, reduceDelay: *delay,
			traceOut: filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", name, *seed)),
		}
		rep, err := run(context.Background(), name, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		last = rep.finish(os.Stdout, name, defs, opts.trace)
		ok = ok && last.Correct
		if len(names) > 1 {
			line, _ := json.Marshal(last)
			fmt.Printf("%s: %s\n", name, line)
		}
	}
	if len(names) > 1 {
		last = result{Correct: ok, Attempted: 1, Metrics: map[string]metric{}}
		if !ok {
			last.Failed = 1
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}
