package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"trainbox/internal/dataprep"
	"trainbox/internal/serve"
)

// tiny is a run budget small enough for unit tests.
func tiny(trace bool, dir string) options {
	return options{seed: 3, seconds: 200 * time.Millisecond, trace: trace, setups: 1,
		traceOut: filepath.Join(dir, "spans.jsonl")}
}

func TestWorkloadsPrintEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			rep, err := run(context.Background(), w, tiny(traced, t.TempDir()))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			var out bytes.Buffer
			res := rep.finish(&out, w, defs, traced)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s trace=%v: not correct:\n%s", w, traced, out.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, traced, d.name, m, d.unit)
				}
				if !strings.Contains(out.String(), d.name) {
					t.Errorf("%s trace=%v: %s not printed", w, traced, d.name)
				}
			}
		}
	}
}

// skewReducer reduces correctly, then perturbs the last rank's result,
// as a broken sync backend would.
type skewReducer struct{ tracedReducer }

func (r *skewReducer) Reduce(ctx context.Context, grads [][]float64) error {
	err := r.Reducer.Reduce(ctx, grads)
	grads[len(grads)-1][0] += 1e-3
	return err
}

func TestSkewedReplicaTripsDivergenceCheck(t *testing.T) {
	env, err := newTrainEnv(cachedStepSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = env.runJob(context.Background(), 1, env.feature, &skewReducer{tracedReducer{Reducer: env.ring}})
	if err == nil || !strings.Contains(err.Error(), "divergence") {
		t.Fatalf("skewed replica: err = %v, want a divergence failure", err)
	}
}

func TestNonFiniteFeatureTripsLossCheck(t *testing.T) {
	env, err := newTrainEnv(cachedStepSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	poisoned := func(p dataprep.Prepared) ([]float64, int, error) {
		x, label, err := env.feature(p)
		if calls++; calls == 5 {
			x[0] = math.NaN()
		}
		return x, label, err
	}
	if _, err := env.runJob(context.Background(), 1, poisoned, env.ring); err == nil || !strings.Contains(err.Error(), "not finite") {
		t.Fatalf("NaN feature: err = %v, want a non-finite loss failure", err)
	}
}

func TestFailingRunnerRaisesFailedRatio(t *testing.T) {
	fail := serve.RunnerFunc(func(_ context.Context, _ string, spec serve.JobSpec) (serve.Outcome, error) {
		if spec.Seed%4 == 0 {
			return serve.Outcome{}, errors.New("injected runner failure")
		}
		return serve.Outcome{FinalLoss: 1, Samples: spec.Items * spec.Epochs}, nil
	})
	rep, err := runServe(context.Background(), tiny(false, t.TempDir()), fail)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res := rep.finish(&out, "serve-mixed", endToEnd, false)
	if res.Correct || res.Failed == 0 || float64(res.Failed)/float64(res.Attempted) < 0.2 {
		t.Fatalf("failing runner: correct=%v failed %d of %d, want ≥ 20%% failed", res.Correct, res.Failed, res.Attempted)
	}
	if !strings.Contains(out.String(), "injected runner failure") {
		t.Fatalf("failure cause not printed:\n%s", out.String())
	}
}

func TestInjectedReduceDelayIsAttributedToCollective(t *testing.T) {
	const delay = 2 * time.Millisecond
	traced := func(d time.Duration) map[string]float64 {
		opts := tiny(true, t.TempDir())
		opts.reduceDelay = d
		rep, err := runTrain(context.Background(), cachedStepSpec(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.failed != 0 { // includes the unattributed-time tolerance
			t.Fatalf("delay %v: %v", d, rep.errs)
		}
		return rep.values
	}
	base, slowed := traced(0), traced(delay)
	if added := slowed["collective.reduce_us_p50"] - base["collective.reduce_us_p50"]; added < 0.9*float64(delay.Microseconds()) {
		t.Errorf("reduce spans grew by %.0f us with a %v delay", added, delay)
	}
	if slowed["self.collective_share"] <= base["self.collective_share"] {
		t.Errorf("collective self share %.3f with a %v reduce delay, %.3f without: added time not attributed to collective",
			slowed["self.collective_share"], delay, base["self.collective_share"])
	}
}

func TestAttributeTrainJobPartitionsWallTime(t *testing.T) {
	// One epoch of two samples and one reduce: prepare [0,40), extracts
	// [40,45) and [45,50), step [50,80) holding the reduce [70,80), then
	// 20 ns of nothing.
	spans := []span{
		{Name: "prepare", Start: 0, End: 40},
		{Name: "extract", Start: 40, End: 45},
		{Name: "extract", Start: 45, End: 50},
		{Name: "sync", Start: 70, End: 80},
	}
	a, err := attributeTrainJob(spans, 0, 100, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{layerDataprep: 40, layerTrain: 10, layerNN: 20, layerCollective: 10, layerOther: 20}
	for layer, d := range want {
		if a.self[layer] != d {
			t.Errorf("%s self time %v, want %v", layer, a.self[layer], d)
		}
	}
	if len(a.epochs) != 1 || a.epochs[0] != 80 {
		t.Errorf("epochs %v, want [80ns]", a.epochs)
	}
}

func TestLindleySLORate(t *testing.T) {
	service := []float64{100, 100, 100, 100}
	if r := lindleySLORate(service, 150*time.Millisecond); r < 9.9 || r > 10 {
		t.Errorf("constant 100ms jobs, 150ms limit: rate %v, want just under 10/s", r)
	}
	if r := lindleySLORate(service, 50*time.Millisecond); r != 0 {
		t.Errorf("limit below the service time: rate %v, want 0", r)
	}
}

func TestBenchmarkJSONMatchesMetricCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, w.Name, workloads[i])
		}
	}
}
