package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"trainbox/internal/dscache"
	"trainbox/internal/metrics"
	"trainbox/internal/serve"
	"trainbox/internal/units"
)

// The serve-mixed workload: an open loop of training jobs, at fixed
// intervals, into an in-process serve.Server backed by the real train
// backend (2 emulated FPGA devices, a 64-item JPEG corpus, the
// parameter-server reducer, and a shared decode cache smaller than the
// corpus's decoded footprint).
const (
	serveDevices    = 2
	serveCorpus     = 64
	serveTenants    = 4
	serveMaxRunning = 1
	// serveCacheBudget is below the corpus's 64×256×256×3 B = 12.6 MB
	// decoded footprint, so long jobs evict while short jobs hit.
	serveCacheBudget = 8 * units.MB
	// serveRate is the fixed arrival rate (jobs/s), well below the
	// ≈35 jobs/s at which the single run slot saturates on the mix.
	serveRate = 10.0
	// serveLimit is the p90 job latency limit of slo_rate_jobs_per_sec,
	// about 6× the p90 at the fixed rate: tighter limits made the
	// figure swing with the host's speed far more than throughput does.
	serveLimit = 500 * time.Millisecond
	// serveRequiredRate is the pool claim (samples/s) of pooled jobs.
	serveRequiredRate = 4000
	// serveDrainTimeout bounds the wait for submitted jobs to finish.
	serveDrainTimeout = 60 * time.Second
)

// serveMix is one cycle of job shapes, half on the pooled path (with a
// required_rate claim) and half on the host path. Most jobs are short,
// so a run holds over a hundred of them; the 64-item jobs touch more
// keys than the cache budget holds and evict. Sorted by latency, the
// shapes at the median and 90th percentile positions (pooled 8-item,
// host 64-item) appear more than once, so those percentiles fall inside
// one shape's latencies rather than in a gap between two shapes.
var serveMix = []struct {
	items, epochs int
	pooled        bool
}{
	{8, 1, false}, {8, 1, false}, {16, 1, false}, {16, 1, false}, {16, 2, false}, {32, 1, false},
	{8, 1, true}, {8, 1, true}, {8, 1, true}, {16, 1, true}, {16, 1, true}, {16, 2, true}, {32, 1, true},
	{64, 1, false}, {64, 1, false}, {64, 1, true},
}

// serveEnv is one set-up instance of the serve-mixed workload.
type serveEnv struct {
	seed   int64
	reg    *metrics.Registry
	runner *serve.TrainRunner
	cache  *dscache.Cache
	srv    *serve.Server
}

// newServeEnv builds the backend and server, and warms it with one job
// of every shape.
func newServeEnv(seed int64, runner serve.Runner) (*serveEnv, error) {
	env := &serveEnv{seed: seed, reg: metrics.NewRegistry()}
	tr, pool, err := serve.NewTrainBackend(serveDevices, serveCorpus, corpusSeed, env.reg)
	if err != nil {
		return nil, err
	}
	tr.Store().WithMetrics(env.reg)
	env.cache = tr.EnableCache(serveCacheBudget, env.reg)
	if _, err := tr.EnableSync("ps", env.reg); err != nil {
		return nil, err
	}
	env.runner = tr
	if runner == nil {
		runner = tr
	}
	env.srv, err = serve.NewServer(
		serve.WithRunner(runner), serve.WithPool(pool), serve.WithMetrics(env.reg),
		serve.WithMaxRunning(serveMaxRunning), serve.WithTenantQuota(16))
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(serveMix); i++ {
		info, err := env.srv.Submit(env.jobSpec(-1 - i))
		if err != nil {
			env.srv.Close()
			return nil, err
		}
		if _, err := env.await(info.ID, serveDrainTimeout); err != nil {
			env.srv.Close()
			return nil, fmt.Errorf("serve-mixed warm-up: %w", err)
		}
	}
	return env, nil
}

// jobSpec is the workload's k-th job. Shapes cycle through serveMix in
// an order and over tenants that are the same for every seed, so every
// run offers the same work in the same sequence; the seed sets each
// job's model and augmentation seed. (Seed-shuffled orders made the
// latency percentiles differ by 20-25% between seeds, far more than
// between runs.) Warm-up jobs (k < 0) run each shape once on the host
// path.
func (env *serveEnv) jobSpec(k int) serve.JobSpec {
	if k < 0 {
		m := serveMix[(-k-1)%len(serveMix)]
		return serve.JobSpec{Tenant: "warmup", Items: m.items, Epochs: m.epochs, Replicas: 2, Seed: env.seed}
	}
	cycle := len(serveMix)
	m := serveMix[rand.New(rand.NewSource(int64(k / cycle))).Perm(cycle)[k%cycle]]
	spec := serve.JobSpec{
		Tenant:   fmt.Sprintf("t%d", k%serveTenants),
		Items:    m.items,
		Epochs:   m.epochs,
		Replicas: 2,
		Seed:     env.seed*1000 + int64(k) + 1,
	}
	if m.pooled {
		spec.RequiredRate = serveRequiredRate
	}
	return spec
}

// await polls a job until it is terminal.
func (env *serveEnv) await(id string, timeout time.Duration) (serve.Info, error) {
	deadline := time.Now().Add(timeout)
	for {
		info, err := env.srv.Status(id)
		if err != nil {
			return info, err
		}
		if info.State.Terminal() {
			if info.State != serve.StateDone {
				return info, fmt.Errorf("job %s ended %s: %s", id, info.State, info.Error)
			}
			return info, nil
		}
		if time.Now().After(deadline) {
			return info, fmt.Errorf("job %s still %s after %v", id, info.State, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// arrival is one submission of the open loop.
type arrival struct {
	k      int
	due    time.Time
	lag    time.Duration
	submit time.Duration
	shed   bool
	info   serve.Info
	err    error
}

func (a arrival) latency() time.Duration { return a.info.Finished.Sub(a.due) }

// cycles is the number of whole job-mix cycles offered at rate in d
// (at least one), so every phase offers the same mix of shapes.
func cycles(rate float64, d time.Duration) int {
	return max(1, int(math.Round(rate*d.Seconds()/float64(len(serveMix)))))
}

// drive submits n cycles of the job mix at fixed intervals from this
// goroutine, starting at job index *next, then waits for every admitted
// job to end. Each job's latency runs from its due time, so a stalled
// generator charges the wait to the jobs it delayed.
func (env *serveEnv) drive(rate float64, n int, next *int) []arrival {
	n *= len(serveMix)
	out := make([]arrival, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		a := arrival{k: *next, due: start.Add(time.Duration(float64(i) / rate * float64(time.Second)))}
		*next++
		if wait := time.Until(a.due); wait > 0 {
			time.Sleep(wait)
		}
		a.lag = time.Since(a.due)
		t0 := time.Now()
		info, err := env.srv.Submit(env.jobSpec(a.k))
		a.submit = time.Since(t0)
		var shed *serve.ShedError
		switch {
		case errors.As(err, &shed):
			a.shed = true
		case err != nil:
			a.err = err
		}
		a.info = info
		out = append(out, a)
	}
	for i := range out {
		if out[i].shed || out[i].err != nil {
			continue
		}
		out[i].info, out[i].err = env.await(out[i].info.ID, serveDrainTimeout)
	}
	return out
}

// servePhase summarizes one driven batch of arrivals.
type servePhase struct {
	arrivals []arrival
	done     []arrival
	shed     int
	failed   int
	errs     []error
}

func summarize(arrivals []arrival) servePhase {
	p := servePhase{arrivals: arrivals}
	for _, a := range arrivals {
		switch {
		case a.shed:
			p.shed++
		case a.err != nil:
			p.failed++
			p.errs = append(p.errs, a.err)
		default:
			p.done = append(p.done, a)
		}
	}
	return p
}

func (p servePhase) latenciesMs() []float64 {
	out := make([]float64, len(p.done))
	for i, a := range p.done {
		out[i] = ms(a.latency())
	}
	return out
}

// span returns the phase's wall time: first due time to last finish.
func (p servePhase) span() time.Duration {
	if len(p.arrivals) == 0 {
		return 0
	}
	var last time.Time
	for _, a := range p.done {
		if a.info.Finished.After(last) {
			last = a.info.Finished
		}
	}
	return last.Sub(p.arrivals[0].due)
}

// runServe runs the serve-mixed workload. runner, when non-nil,
// replaces the real train backend (tests inject failing runners).
func runServe(ctx context.Context, opts options, runner serve.Runner) (*report, error) {
	rep := newReport()
	var setups []float64
	setup := func() (*serveEnv, error) {
		t0 := time.Now()
		e, err := newServeEnv(opts.seed, runner)
		setups = append(setups, time.Since(t0).Seconds())
		return e, err
	}
	var env *serveEnv
	for i := 0; i < setupsBefore(opts.setups); i++ {
		e, err := setup()
		if env != nil {
			env.srv.Close()
		}
		if err != nil {
			return nil, err
		}
		env = e
	}
	defer env.srv.Close()
	next := 0

	if !opts.trace {
		fixed := summarize(env.drive(serveRate, cycles(serveRate, opts.seconds), &next))
		rep.attempt(len(fixed.arrivals), fixed.shed+fixed.failed, fixed.errs...)
		lat := fixed.latenciesMs()
		var samples int
		var losses, runMs []float64
		for _, a := range fixed.done {
			samples += a.info.Outcome.Samples
			losses = append(losses, a.info.Outcome.FinalLoss)
			runMs = append(runMs, ms(a.info.Finished.Sub(a.info.Started)))
		}
		rep.set("job_latency_p50_ms", median(lat), len(lat))
		rep.set("job_latency_p90_ms", quantile(lat, 0.9), len(lat))
		rep.set("jobs_per_sec", ratio(float64(len(fixed.done)), fixed.span().Seconds()), len(fixed.done))
		rep.set("train_samples_per_sec", ratio(float64(samples), fixed.span().Seconds()), len(fixed.done))
		rep.set("final_loss", median(losses), len(losses))
		// One run slot makes the server a single FIFO queue, so its
		// highest rate within the limit follows from the measured run
		// times as for the train workloads.
		rep.set("slo_rate_jobs_per_sec", lindleySLORate(runMs, serveLimit), len(runMs))
	} else {
		n := cycles(serveRate, opts.seconds/2)
		untraced := summarize(env.drive(serveRate, n, &next))
		c0, cache0, m0 := env.reg.Snapshot(), env.cache.Stats(), mallocs()
		traced := summarize(env.drive(serveRate, n, &next))
		allocs := mallocs() - m0
		for _, p := range []servePhase{untraced, traced} {
			rep.attempt(len(p.arrivals), p.shed+p.failed, p.errs...)
		}
		tr := newTracer()
		for _, a := range traced.arrivals {
			id := int64(a.k)
			tr.recordJob(id, "submit", "job", a.due.Add(a.lag), a.due.Add(a.lag+a.submit))
			if a.shed || a.err != nil {
				continue
			}
			tr.recordJob(id, "job", "", a.due, a.info.Finished)
			tr.recordJob(id, "queue", "job", a.info.Submitted, a.info.Started)
			tr.recordJob(id, "run", "job", a.info.Started, a.info.Finished)
		}
		env.layerMetrics(rep, traced, c0, cache0, allocs, tr)
		u, t := median(untraced.latenciesMs()), median(traced.latenciesMs())
		rep.set("trace.overhead_pct", 100*ratio(t-u, u), len(traced.done))
		kt := kernelTimes{}
		rep.check("kernel replay matches the preparer", func() error {
			return replayImage(env.runner.Store(), env.runner.Store().Keys(), env.runner.ImageConfig(), env.jobSpec(0).Seed, 0, kt)
		})
		for name, xs := range kt {
			rep.set(name, median(xs)/1e3, len(xs))
		}
		rep.check("write spans", func() error { return tr.write(opts.traceOut) })
	}

	rep.check("no lost jobs: every admitted job is accounted for", func() error {
		st := env.srv.Stats()
		if sum := st.QueueDepth + st.Running + st.Suspended + st.Done + st.Failed + st.Cancelled; sum != st.Jobs {
			return fmt.Errorf("%d jobs but %d queued+running+suspended+done+failed+cancelled", st.Jobs, sum)
		}
		if st.Failed+st.Cancelled+st.QueueDepth+st.Running+st.Suspended > 0 {
			return fmt.Errorf("admitted jobs not done: %+v", st)
		}
		return nil
	})
	if !opts.trace {
		rep.check("kernel replay matches the preparer", func() error {
			keys := env.runner.Store().Keys()[:8]
			return replayImage(env.runner.Store(), keys, env.runner.ImageConfig(), env.jobSpec(0).Seed, 0, kernelTimes{})
		})
	}
	rep.set("peak_rss_mb", peakRSSMB(), 1)

	for len(setups) < opts.setups {
		e, err := setup()
		if err != nil {
			return nil, err
		}
		e.srv.Close()
	}
	rep.set("setup_s", median(setups), len(setups))
	return rep, nil
}

// layerMetrics derives serve-mixed's per-layer metrics from a traced
// phase: the Info timestamps, the timed Submit calls, and the server
// registry's counters (c0 is the registry before the phase).
func (env *serveEnv) layerMetrics(rep *report, p servePhase, c0 metrics.Snapshot, cache0 dscache.Stats, allocs uint64, tr *tracer) {
	c1 := env.reg.Snapshot()
	jobs := float64(len(p.arrivals))
	n := len(p.arrivals)
	diff := func(name string) float64 { return float64(c1.Counters[name] - c0.Counters[name]) }
	sumDiff := func(prefix, suffix string) float64 {
		var s float64
		for name := range c1.Counters {
			if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
				s += diff(name)
			}
		}
		return s
	}

	var submitUs, lagMs, queueMs, runMs []float64
	var samples int
	for _, a := range p.arrivals {
		submitUs = append(submitUs, float64(a.submit)/1e3)
		lagMs = append(lagMs, ms(a.lag))
	}
	for _, a := range p.done {
		queueMs = append(queueMs, ms(a.info.Started.Sub(a.info.Submitted)))
		runMs = append(runMs, ms(a.info.Finished.Sub(a.info.Started)))
		samples += a.info.Outcome.Samples
	}
	rep.set("serve.submit_us_p50", median(submitUs), n)
	rep.set("serve.queue_wait_ms_p50", median(queueMs), len(queueMs))
	rep.set("serve.queue_wait_ms_p90", quantile(queueMs, 0.9), len(queueMs))
	rep.set("serve.run_ms_p50", median(runMs), len(runMs))
	rep.set("serve.run_ms_p90", quantile(runMs, 0.9), len(runMs))
	rep.set("serve.shed", ratio(diff("serve.server.shed"), jobs), n)
	rep.set("serve.preemptions", ratio(diff("serve.server.preemptions"), jobs), n)
	rep.set("serve.generator_lag_ms_max", quantile(lagMs, 1), n)

	store := "storage." + env.runner.Store().Spec().Name + "."
	rep.set("storage.reads", ratio(diff(store+"reads"), jobs), n)
	rep.set("storage.bytes_read", ratio(diff(store+"bytes_read"), jobs), n)
	rep.set("storage.read_us_p50", c1.Histograms[store+"read_ns"].P50/1e3, int(diff(store+"reads")))
	rep.set("dataprep.allocs_per_sample", ratio(float64(allocs), float64(samples)), samples)

	cs := env.cache.Stats()
	hits, misses := float64(cs.Hits-cache0.Hits), float64(cs.Misses-cache0.Misses)
	rep.set("dscache.hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	rep.set("dscache.decodes", ratio(misses, jobs), n)
	rep.set("dscache.evictions", ratio(float64(cs.Evictions-cache0.Evictions), jobs), n)
	rep.set("dscache.singleflight_waits", ratio(float64(cs.SingleflightWaits-cache0.SingleflightWaits), jobs), n)

	rep.set("collective.rounds", ratio(diff("collective.ps.rounds"), jobs), n)
	rep.set("collective.bytes_moved", ratio(diff("collective.ps.bytes_moved"), jobs), n)
	rep.set("collective.ps_shard_retries", ratio(diff("collective.ps.shard_retries"), jobs), n)

	rep.set("fpga.sample_us_p50", c1.Histograms["fpga.p2p.sample_ns"].P50/1e3, int(diff("fpga.p2p.samples_prepared")))
	rep.set("fpga.samples_prepared", ratio(diff("fpga.p2p.samples_prepared"), jobs), n)
	rep.set("preppool.pooled_share", ratio(sumDiff("preppool.job.", ".pooled_samples"), sumDiff("preppool.job.", ".samples")), n)
	rep.set("preppool.migrations", ratio(diff("preppool.pool.migrations"), jobs), n)
	rep.set("preppool.rebalances", ratio(diff("preppool.pool.rebalances"), jobs), n)
	rep.set("metrics.series", float64(seriesCount(c1)), 1)
}

// seriesCount is the number of metric series in a snapshot.
func seriesCount(s metrics.Snapshot) int {
	return len(s.Counters) + len(s.Gauges) + len(s.Meters) + len(s.Histograms)
}
