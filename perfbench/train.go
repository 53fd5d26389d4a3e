package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"trainbox/internal/collective"
	"trainbox/internal/dataprep"
	"trainbox/internal/dscache"
	"trainbox/internal/metrics"
	"trainbox/internal/storage"
	"trainbox/internal/train"
	"trainbox/internal/units"
)

// trainSpec is one training workload: a synthetic corpus, its
// preparation config, and the shape of each training job. A run of the
// workload is a closed loop of train.Run calls ("jobs") of this shape.
type trainSpec struct {
	name      string
	audio     bool
	items     int
	image     dataprep.ImageConfig
	audioCfg  dataprep.AudioConfig
	replicas  int
	widths    []int
	epochs    int
	minibatch int
	cached    bool
	// limit is the job latency limit slo_rate_jobs_per_sec is held to.
	limit time.Duration
}

const (
	classes = 4
	// jobSeeds is how many model seeds a train workload cycles through;
	// every seed after the first pass must reproduce its final loss.
	jobSeeds = 16
	// featureGrid pools every prepared sample to a featureGrid² input.
	featureGrid = 8
	// corpusSeed synthesizes every workload's corpus: like a real
	// benchmark's dataset, the corpus is fixed, and the run seed sets
	// augmentation and model initialization. (With the corpus seeded
	// per run, the final loss of the 32×32-crop workload differed by
	// up to 2× between seeds: some corpora are far easier to learn.)
	corpusSeed = 1
	// cacheBudget holds the cached workload's whole decoded corpus.
	cacheBudget = 64 * units.MB
)

func imageTrainSpec() trainSpec {
	return trainSpec{
		name: "image-train", items: 64, image: dataprep.DefaultImageConfig(),
		replicas: 2, widths: []int{featureGrid * featureGrid, 32, classes},
		epochs: 2, minibatch: 8, limit: 900 * time.Millisecond,
	}
}

func audioTrainSpec() trainSpec {
	return trainSpec{
		name: "audio-train", audio: true, items: 16, audioCfg: dataprep.DefaultAudioConfig(),
		replicas: 2, widths: []int{featureGrid * featureGrid, 32, classes},
		epochs: 2, minibatch: 4, limit: 1300 * time.Millisecond,
	}
}

func cachedStepSpec() trainSpec {
	img := dataprep.DefaultImageConfig()
	img.CropW, img.CropH = 32, 32
	return trainSpec{
		name: "cached-step-train", items: 64, image: img, cached: true,
		replicas: 4, widths: []int{featureGrid * featureGrid, 256, 256, classes},
		epochs: 4, minibatch: 2, limit: 450 * time.Millisecond,
	}
}

// roundsPerEpoch is the number of synchronized steps in one epoch.
func (s trainSpec) roundsPerEpoch() int {
	shard := s.items / s.replicas
	mb := s.minibatch
	if mb <= 0 || mb > shard {
		mb = shard
	}
	return shard / mb
}

// trainEnv is one set-up instance of a train workload.
type trainEnv struct {
	spec   trainSpec
	seed   int64
	reg    *metrics.Registry
	store  *storage.Store
	keys   []string
	execs  []*dataprep.Executor
	base   dataprep.Preparer
	cache  *dscache.Cache
	ring   collective.Reducer
	losses map[int64]float64
}

// newTrainEnv synthesizes the corpus, builds the executor and reducer,
// warms the cache tier (cached workload), and runs one warm-up job.
func newTrainEnv(spec trainSpec, seed int64) (*trainEnv, error) {
	env := &trainEnv{spec: spec, seed: seed, reg: metrics.NewRegistry(), losses: map[int64]float64{}}
	env.store = storage.NewStore(storage.DefaultSSDSpec())
	var err error
	if spec.audio {
		err = dataprep.BuildAudioDataset(env.store, spec.items, classes, corpusSeed)
		env.base = dataprep.AudioPreparer{Config: spec.audioCfg}
	} else {
		err = dataprep.BuildImageDataset(env.store, spec.items, classes, corpusSeed)
		env.base = dataprep.ImagePreparer{Config: spec.image}
	}
	if err != nil {
		return nil, err
	}
	env.store.WithMetrics(env.reg)
	env.keys = env.store.Keys()
	if env.ring, err = collective.NewRing(collective.WithMetrics(env.reg)); err != nil {
		return nil, err
	}
	if !spec.cached {
		env.execs = []*dataprep.Executor{dataprep.NewExecutor(env.base, 0, seed).WithMetrics(env.reg)}
	} else {
		// Jobs sharing a cache tier each keep their own augmentation
		// seed, as tenants sharing a dataset would; the warm tier serves
		// every one of them from one decode per key.
		env.cache = dscache.New(cacheBudget, dscache.WithName("bench")).WithMetrics(env.reg)
		for i := 0; i < jobSeeds; i++ {
			exec := dataprep.NewExecutor(env.base, 0, env.jobSeed(i)).WithMetrics(env.reg)
			if _, ok := dscache.Bind(env.cache, exec); !ok {
				return nil, fmt.Errorf("%s: executor preparer has no cached form", spec.name)
			}
			env.execs = append(env.execs, exec)
		}
		batch, err := env.execs[0].PrepareBatch(env.store, env.keys, 0)
		if err != nil {
			return nil, err
		}
		env.execs[0].Recycle(batch...)
	}
	if _, err := env.runJob(context.Background(), 0, env.feature, env.ring); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", spec.name, err)
	}
	return env, nil
}

// jobSeed is the model seed of the workload's i-th job.
func (env *trainEnv) jobSeed(i int) int64 { return env.seed*100 + int64(i%jobSeeds) }

// exec is the executor of the workload's i-th job.
func (env *trainEnv) exec(i int) *dataprep.Executor { return env.execs[i%len(env.execs)] }

// feature pools a prepared sample into a featureGrid×featureGrid input:
// channel 0 of an image tensor, or time×mel blocks of a spectrogram.
func (env *trainEnv) feature(p dataprep.Prepared) ([]float64, int, error) {
	switch {
	case p.Image != nil:
		t := p.Image
		return poolGrid(t.H, t.W, func(r, c int) float64 { return float64(t.Data[r*t.W+c]) }), p.Label, nil
	case p.Audio != nil:
		s := p.Audio
		return poolGrid(s.Frames, s.Bins, func(r, c int) float64 { return s.Data[r*s.Bins+c] }), p.Label, nil
	}
	return nil, 0, fmt.Errorf("sample %q has no image or audio", p.Key)
}

// poolGrid averages a rows×cols matrix over a featureGrid² block grid.
func poolGrid(rows, cols int, at func(r, c int) float64) []float64 {
	rb, cb := rows/featureGrid, cols/featureGrid
	feat := make([]float64, featureGrid*featureGrid)
	for i := 0; i < featureGrid; i++ {
		for j := 0; j < featureGrid; j++ {
			var sum float64
			for r := i * rb; r < (i+1)*rb; r++ {
				for c := j * cb; c < (j+1)*cb; c++ {
					sum += at(r, c)
				}
			}
			feat[i*featureGrid+j] = sum / float64(rb*cb)
		}
	}
	return feat
}

// jobResult is one finished train.Run call.
type jobResult struct {
	res   train.Result
	start time.Time
	wall  time.Duration
}

// runJob trains the workload's i-th job and checks its outputs: the
// replicas must agree exactly, the loss must be finite, and a job seed
// seen before must reproduce its final loss bit for bit.
func (env *trainEnv) runJob(ctx context.Context, i int, feature train.FeatureFn, red collective.Reducer) (jobResult, error) {
	s := env.spec
	cfg := train.Config{
		Replicas: s.replicas, Widths: s.widths, Epochs: s.epochs,
		MinibatchPerReplica: s.minibatch, LearningRate: 0.1, Momentum: 0,
		PrefetchDepth: 2, Seed: env.jobSeed(i), Metrics: metrics.NewRegistry(),
	}
	opts := []train.Option{
		train.WithDataset(env.exec(i), env.store, env.keys),
		train.WithFeature(feature),
		train.WithSync(red),
	}
	if env.cache != nil {
		opts = append(opts, train.WithCache(env.cache))
	}
	start := time.Now()
	res, err := train.Run(ctx, cfg, opts...)
	wall := time.Since(start)
	if err != nil {
		return jobResult{}, err
	}
	if d := train.MaxReplicaDivergence(res.Replicas); d != 0 {
		return jobResult{}, fmt.Errorf("job %d: replica divergence %g, want 0", i, d)
	}
	loss := finalEpochLoss(res)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return jobResult{}, fmt.Errorf("job %d: final loss %v is not finite", i, loss)
	}
	if prev, ok := env.losses[cfg.Seed]; ok && math.Float64bits(prev) != math.Float64bits(loss) {
		return jobResult{}, fmt.Errorf("job %d: seed %d final loss %v differs from earlier %v", i, cfg.Seed, loss, prev)
	}
	env.losses[cfg.Seed] = loss
	res.Replicas = nil // checked; keeping every job's models would dominate peak RSS
	return jobResult{res: res, start: start, wall: wall}, nil
}

// finalEpochLoss is the mean step loss of a run's last epoch: a single
// step's loss covers too few samples to compare runs by.
func finalEpochLoss(res train.Result) float64 {
	last := res.Steps[len(res.Steps)-1].Epoch
	var sum float64
	n := 0
	for _, st := range res.Steps {
		if st.Epoch == last {
			sum += st.MeanLoss
			n++
		}
	}
	return sum / float64(n)
}

// medianLoss is the median final-epoch loss over the job seeds.
func (env *trainEnv) medianLoss() float64 {
	losses := make([]float64, 0, len(env.losses))
	for _, l := range env.losses {
		losses = append(losses, l)
	}
	return median(losses)
}

// trainPhase is the record of one measured loop of jobs.
type trainPhase struct {
	jobs      []jobResult
	ids       []int64
	failed    int
	errs      []error
	elapsed   time.Duration
	allocs    uint64
	before    metrics.Snapshot
	after     metrics.Snapshot
	cacheDiff dscache.Stats
}

func (p *trainPhase) samples() int {
	n := 0
	for _, j := range p.jobs {
		n += j.res.SamplesProcessed
	}
	return n
}

// samplesPerSec is samples trained per second inside train.Run.
func (p *trainPhase) samplesPerSec() float64 {
	var busy time.Duration
	for _, j := range p.jobs {
		busy += j.wall
	}
	return ratio(float64(p.samples()), busy.Seconds())
}

func (p *trainPhase) latenciesMs() []float64 {
	out := make([]float64, len(p.jobs))
	for i, j := range p.jobs {
		out[i] = ms(j.wall)
	}
	return out
}

// phase runs jobs back to back for d (at least jobSeeds+1 of them, so
// every job seed is trained and one is repeated). A non-nil tracer
// routes the executor, feature map and reducer through the tracing
// decorators; delay > 0 slows every reduce by that much.
func (env *trainEnv) phase(ctx context.Context, d time.Duration, tr *tracer, delay time.Duration, next *int) *trainPhase {
	feature, red := train.FeatureFn(env.feature), env.ring
	if tr != nil || delay > 0 {
		red = &tracedReducer{Reducer: env.ring, tr: tr, delay: delay}
	}
	if tr != nil {
		feature = tracedFeature(env.feature, tr)
		if env.cache == nil {
			exec := env.execs[0]
			exec.WithPreparer(&tracedPreparer{base: env.base.(dataprep.ScratchPreparer), tr: tr})
			defer exec.WithPreparer(env.base)
		}
	}
	p := &trainPhase{before: env.reg.Snapshot()}
	var cache0 dscache.Stats
	if env.cache != nil {
		cache0 = env.cache.Stats()
	}
	m0 := mallocs()
	start := time.Now()
	for time.Since(start) < d || len(p.jobs)+p.failed <= jobSeeds {
		i := *next
		*next++
		id := int64(i)
		if tr != nil {
			tr.job.Store(id)
		}
		j, err := env.runJob(ctx, i, feature, red)
		if err != nil {
			p.failed++
			p.errs = append(p.errs, err)
			if len(p.errs) > 3 {
				break
			}
			continue
		}
		if tr != nil {
			tr.recordJob(id, "job", "", j.start, j.start.Add(j.wall))
		}
		p.jobs = append(p.jobs, j)
		p.ids = append(p.ids, id)
	}
	p.elapsed = time.Since(start)
	p.allocs = mallocs() - m0
	p.after = env.reg.Snapshot()
	if env.cache != nil {
		c := env.cache.Stats()
		p.cacheDiff = dscache.Stats{
			Hits: c.Hits - cache0.Hits, Misses: c.Misses - cache0.Misses,
			Evictions: c.Evictions - cache0.Evictions, SingleflightWaits: c.SingleflightWaits - cache0.SingleflightWaits,
		}
	}
	return p
}

// checkCachedTensors trains one more job whose feature map copies out a
// sample of the prepared tensors, and compares each with the uncached
// dataprep.PrepareImage for the same (dataset seed, key, epoch).
func (env *trainEnv) checkCachedTensors(ctx context.Context, i int) error {
	type captured struct {
		key   string
		epoch int
		data  []float32
	}
	var got []captured
	calls := 0
	capture := func(p dataprep.Prepared) ([]float64, int, error) {
		if calls%8 == 0 {
			got = append(got, captured{p.Key, calls / len(env.keys), append([]float32(nil), p.Image.Data...)})
		}
		calls++
		return env.feature(p)
	}
	if _, err := env.runJob(ctx, i, capture, env.ring); err != nil {
		return err
	}
	for _, c := range got {
		obj, err := env.store.Get(c.key)
		if err != nil {
			return err
		}
		want, err := dataprep.PrepareImage(obj.Data, env.spec.image, dataprep.SampleSeed(env.exec(i).DatasetSeed(), c.key, c.epoch))
		if err != nil {
			return err
		}
		if err := sameF32(c.data, want.Data); err != nil {
			return fmt.Errorf("cached tensor %s epoch %d differs from uncached PrepareImage: %w", c.key, c.epoch, err)
		}
	}
	if len(got) == 0 {
		return fmt.Errorf("cached tensor check captured no samples")
	}
	return nil
}

// replay runs the kernel-replay oracle over keys for epochs [0, epochs).
func (env *trainEnv) replay(keys []string, epochs int, kt kernelTimes) error {
	for e := 0; e < epochs; e++ {
		var err error
		if env.spec.audio {
			err = replayAudio(env.store, keys, env.spec.audioCfg, env.execs[0].DatasetSeed(), e, kt)
		} else {
			err = replayImage(env.store, keys, env.spec.image, env.execs[0].DatasetSeed(), e, kt)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// lindleySLORate is the highest rate of fixed-interval job arrivals a
// single-slot server could accept with the p90 job latency within limit and
// no growing backlog. Arrivals replay the measured service times in
// order through a single-server FIFO queue (the Lindley recursion), so
// the figure moves with both the median and the tail of job latency.
// It is found by bisection below the saturation rate 1/mean(service).
func lindleySLORate(serviceMs []float64, limit time.Duration) float64 {
	if len(serviceMs) == 0 {
		return 0
	}
	limitMs := ms(limit)
	meets := func(rate float64) bool {
		gap := 1000 / rate
		lat := make([]float64, len(serviceMs))
		wait := 0.0
		for i, s := range serviceMs {
			lat[i] = wait + s
			wait = math.Max(0, wait+s-gap)
		}
		return quantile(lat, 0.9) <= limitMs
	}
	lo, hi := 0.0, 1000/mean(serviceMs)
	if !meets(hi * 1e-3) {
		return 0
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if meets(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// runTrain runs a train workload: set-up (repeated opts.setups times,
// around the measured phase), a measured phase, and the output checks.
// With opts.trace the measured time is split into an untraced and a
// traced half.
func runTrain(ctx context.Context, spec trainSpec, opts options) (*report, error) {
	rep := newReport()
	var setups []float64
	setup := func() (*trainEnv, error) {
		t0 := time.Now()
		e, err := newTrainEnv(spec, opts.seed)
		setups = append(setups, time.Since(t0).Seconds())
		return e, err
	}
	var env *trainEnv
	for i := 0; i < setupsBefore(opts.setups); i++ {
		var err error
		if env, err = setup(); err != nil {
			return nil, err
		}
	}
	next := 1

	if !opts.trace {
		p := env.phase(ctx, opts.seconds, nil, opts.reduceDelay, &next)
		rep.attempt(len(p.jobs)+p.failed, p.failed, p.errs...)
		lat := p.latenciesMs()
		rep.set("train_samples_per_sec", p.samplesPerSec(), len(p.jobs))
		rep.set("job_latency_p50_ms", median(lat), len(lat))
		rep.set("job_latency_p90_ms", quantile(lat, 0.9), len(lat))
		rep.set("jobs_per_sec", ratio(float64(len(p.jobs)), p.elapsed.Seconds()), len(p.jobs))
		rep.set("slo_rate_jobs_per_sec", lindleySLORate(lat, spec.limit), len(lat))
		rep.check("repeat job 0 reproduces its final loss", func() error {
			_, err := env.runJob(ctx, 0, env.feature, env.ring)
			return err
		})
		if env.cache != nil {
			rep.check("cached tensors equal uncached PrepareImage", func() error {
				return env.checkCachedTensors(ctx, next)
			})
		}
		rep.check("kernel replay matches the preparer", func() error {
			return env.replay(env.keys[:8], 1, kernelTimes{})
		})
		rep.set("final_loss", env.medianLoss(), len(env.losses))
		rep.set("peak_rss_mb", peakRSSMB(), 1)
	} else {
		env.tracedPhases(ctx, rep, opts, &next)
	}

	for len(setups) < opts.setups {
		if _, err := setup(); err != nil {
			return nil, err
		}
	}
	rep.set("setup_s", median(setups), len(setups))
	return rep, nil
}

// tracedPhases measures half of opts.seconds untraced and half traced,
// runs the full kernel replay, and reports the per-layer metrics.
func (env *trainEnv) tracedPhases(ctx context.Context, rep *report, opts options, next *int) {
	untraced := env.phase(ctx, opts.seconds/2, nil, opts.reduceDelay, next)
	tr := newTracer()
	traced := env.phase(ctx, opts.seconds/2, tr, opts.reduceDelay, next)
	for _, p := range []*trainPhase{untraced, traced} {
		rep.attempt(len(p.jobs)+p.failed, p.failed, p.errs...)
	}
	kt := kernelTimes{}
	rep.check("kernel replay matches the preparer", func() error {
		return env.replay(env.keys, env.spec.epochs, kt)
	})
	env.layerMetrics(rep, traced, tr, kt)
	rep.set("trace.overhead_pct", 100*ratio(untraced.samplesPerSec()-traced.samplesPerSec(), untraced.samplesPerSec()), len(traced.jobs))
	rep.check("write spans", func() error { return tr.write(opts.traceOut) })
}

// layerMetrics derives the per-layer metrics of a traced phase.
func (env *trainEnv) layerMetrics(rep *report, p *trainPhase, tr *tracer, kt kernelTimes) {
	jobs := float64(len(p.jobs))
	c0, c1 := p.before.Counters, p.after.Counters
	diff := func(name string) float64 { return float64(c1[name] - c0[name]) }
	perJob := func(name string) float64 { return ratio(diff(name), jobs) }

	store := "storage." + env.store.Spec().Name + "."
	rep.set("storage.reads", perJob(store+"reads"), len(p.jobs))
	rep.set("storage.bytes_read", perJob(store+"bytes_read"), len(p.jobs))
	rep.set("storage.read_us_p50", p.after.Histograms[store+"read_ns"].P50/1e3, int(diff(store+"reads")))

	for name, xs := range kt {
		rep.set(name, median(xs)/1e3, len(xs))
	}

	rep.set("dataprep.sample_us_p50", p.after.Histograms["dataprep.executor.ns_per_sample"].P50/1e3, int(diff("dataprep.executor.samples_prepared")))
	rep.set("dataprep.allocs_per_sample", ratio(float64(p.allocs), float64(p.samples())), p.samples())
	rep.set("metrics.series", float64(seriesCount(p.after)), 1)

	if env.cache != nil {
		cs := p.cacheDiff
		rep.set("dscache.hit_ratio", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)), int(cs.Hits+cs.Misses))
		rep.set("dscache.decodes", ratio(float64(cs.Misses), jobs), len(p.jobs))
		rep.set("dscache.evictions", ratio(float64(cs.Evictions), jobs), len(p.jobs))
		rep.set("dscache.singleflight_waits", ratio(float64(cs.SingleflightWaits), jobs), len(p.jobs))
	}

	red := "collective." + env.ring.Name() + "."
	rep.set("collective.rounds", perJob(red+"rounds"), len(p.jobs))
	rep.set("collective.bytes_moved", perJob(red+"bytes_moved"), len(p.jobs))
	rep.set("collective.ps_shard_retries", perJob("collective.ps.shard_retries"), len(p.jobs))
	reduces := tr.named("sync")
	rep.set("collective.reduce_us_p50", median(reduces)/1e3, len(reduces))

	// Driver metrics live in each job's own registry.
	var overlap, stepWait, extractMs, prepEpochMs, computeMs, epochMs []float64
	self := map[string]time.Duration{}
	var wall time.Duration
	for k, j := range p.jobs {
		m := j.res.Metrics
		stepBusy := time.Duration(m.Histograms["pipeline.train.step.busy_ns"].Sum)
		prepBusy := time.Duration(m.Histograms["pipeline.train.prepare.busy_ns"].Sum)
		overlap = append(overlap, m.Gauges["train.driver.prep_step_overlap"])
		stepWait = append(stepWait, ms(j.wall-stepBusy))
		extractMs = append(extractMs, m.Histograms["pipeline.train.extract.busy_ns"].Sum/1e6)
		prepEpochMs = append(prepEpochMs, m.Histograms["pipeline.train.prepare.busy_ns"].P50/1e6)
		steps := m.Histograms["train.driver.step_ns"]
		computeMs = append(computeMs, ratio(steps.Sum-m.Histograms["train.driver.sync_ns"].Sum, float64(steps.Count))/1e6)

		spans := tr.jobSpans(p.ids[k])
		var root span
		for _, s := range spans {
			if s.Name == "job" {
				root = s
			}
		}
		a, err := attributeTrainJob(spans, root.Start, root.End, env.spec.epochs, len(env.keys), env.spec.roundsPerEpoch())
		if err != nil {
			rep.fail(fmt.Errorf("job %d: %w", p.ids[k], err))
			continue
		}
		if env.cache != nil {
			// No prepare decorator on the cached path (dscache.Bind
			// type-switches on concrete preparers): the step stage's idle
			// time goes to the driver's own prepare-stage busy time.
			moved := min(a.self[layerOther], prepBusy)
			a.self[layerOther] -= moved
			a.self[layerDataprep] += moved
		}
		for layer, d := range a.self {
			self[layer] += d
		}
		wall += a.wall
		for _, e := range a.epochs {
			epochMs = append(epochMs, ms(e))
		}
		for _, st := range a.steps {
			tr.recordJob(p.ids[k], "step", "job", tr.origin.Add(time.Duration(st.Start)), tr.origin.Add(time.Duration(st.End)))
		}
	}
	n := len(p.jobs)
	rep.set("train.prep_step_overlap", median(overlap), n)
	rep.set("train.step_wait_ms", median(stepWait), n)
	rep.set("train.extract_ms", median(extractMs), n)
	rep.set("train.epoch_ms_p50", median(epochMs), len(epochMs))
	rep.set("dataprep.epoch_prepare_ms", median(prepEpochMs), n)
	rep.set("nn.compute_ms_per_step", median(computeMs), n)

	for _, layer := range []string{layerCollective, layerNN, layerTrain, layerDataprep} {
		rep.set("self."+layer+"_share", ratio(float64(self[layer]), float64(wall)), n)
	}
	attributed := ratio(float64(wall-self[layerOther]), float64(wall))
	rep.set("trace.attributed_share", attributed, n)
	rep.notef("layer self times over %d traced jobs (%.1f ms wall): collective %.1f ms, nn %.1f ms, train %.1f ms, dataprep %.1f ms, unattributed %.1f ms",
		n, ms(wall), ms(self[layerCollective]), ms(self[layerNN]), ms(self[layerTrain]), ms(self[layerDataprep]), ms(self[layerOther]))
	if n > 0 && attributed < 1-selfTimeTolerance {
		rep.fail(fmt.Errorf("layer self times cover %.1f%% of wall time, want ≥ %.0f%%", 100*attributed, 100*(1-selfTimeTolerance)))
	}
}

// selfTimeTolerance is the share of a traced train job's wall time that
// may go unattributed to any layer.
const selfTimeTolerance = 0.10

// tracedPreparer times every sample preparation on the uncached path.
// It keeps the scratch path: the executor hands it pooled working sets
// exactly as it would the plain preparer.
type tracedPreparer struct {
	base dataprep.ScratchPreparer
	tr   *tracer
}

func (p *tracedPreparer) Prepare(obj storage.Object, seed int64) dataprep.Prepared {
	start := time.Now()
	out := p.base.Prepare(obj, seed)
	p.tr.record("prepare", "job", start, time.Now())
	return out
}

func (p *tracedPreparer) PrepareScratch(obj storage.Object, seed int64, s *dataprep.Scratch) dataprep.Prepared {
	start := time.Now()
	out := p.base.PrepareScratch(obj, seed, s)
	p.tr.record("prepare", "job", start, time.Now())
	return out
}

// tracedFeature times every feature extraction.
func tracedFeature(f train.FeatureFn, tr *tracer) train.FeatureFn {
	return func(p dataprep.Prepared) ([]float64, int, error) {
		start := time.Now()
		x, label, err := f(p)
		tr.record("extract", "job", start, time.Now())
		return x, label, err
	}
}

// tracedReducer times every gradient reduce of the reducer the driver
// is given, optionally delaying each by a fixed amount first (the
// attribution check: the added time must show up under collective).
type tracedReducer struct {
	collective.Reducer
	tr    *tracer
	delay time.Duration
}

func (r *tracedReducer) Reduce(ctx context.Context, grads [][]float64) error {
	start := time.Now()
	if r.delay > 0 {
		time.Sleep(r.delay)
	}
	err := r.Reducer.Reduce(ctx, grads)
	r.tr.record("sync", "step", start, time.Now())
	return err
}
