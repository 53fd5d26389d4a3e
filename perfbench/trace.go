package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one job
// (one train.Run call, or one served job) share Job; Parent names the
// enclosing span kind.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Job    int64  `json:"job"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil through the same decorators.
type tracer struct {
	origin time.Time
	job    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// since converts a wall time to the tracer's clock.
func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// record stores a span of the current job.
func (t *tracer) record(name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.recordJob(t.job.Load(), name, parent, start, end)
}

// recordJob stores a span of an explicit job.
func (t *tracer) recordJob(job int64, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Parent: parent, Job: job, Start: t.since(start), End: t.since(end)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// jobSpans returns the spans of one job, in recording order.
func (t *tracer) jobSpans(job int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Job == job {
			out = append(out, s)
		}
	}
	return out
}

// named returns the durations of every span with the given name.
func (t *tracer) named(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write dumps every span as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Layers a train job's wall time is attributed to.
const (
	layerCollective = "collective"
	layerNN         = "nn"
	layerTrain      = "train"
	layerDataprep   = "dataprep"
	layerOther      = "unattributed"
)

// attribution is one train job's wall time split into layer self times,
// plus the reconstructed per-epoch durations.
type attribution struct {
	self   map[string]time.Duration
	wall   time.Duration
	epochs []time.Duration
	steps  []span
}

// attributeTrainJob splits a train job's wall time [start, end] into
// layer self times. The driver's step stage is serial and is what the
// run waits on, so each instant goes to the most downstream layer busy
// at that instant: a gradient reduce (collective), else the rest of a
// step (nn), else feature extraction (train), else sample preparation
// (dataprep), else nobody (unattributed). Step spans are not observable
// from outside the driver; they are rebuilt from the extract and reduce
// spans: epoch e's step starts when both its extraction and epoch e-1's
// step have finished, and ends with its last reduce.
func attributeTrainJob(spans []span, start, end int64, epochs, keysPerEpoch, roundsPerEpoch int) (attribution, error) {
	var extract, syncs, prep []span
	for _, s := range spans {
		switch s.Name {
		case "extract":
			extract = append(extract, s)
		case "sync":
			syncs = append(syncs, s)
		case "prepare":
			prep = append(prep, s)
		}
	}
	if len(extract) != epochs*keysPerEpoch || len(syncs) != epochs*roundsPerEpoch {
		return attribution{}, fmt.Errorf("trace: job has %d extract and %d sync spans, want %d and %d",
			len(extract), len(syncs), epochs*keysPerEpoch, epochs*roundsPerEpoch)
	}
	byStart := func(ss []span) {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	}
	byStart(extract)
	byStart(syncs)

	a := attribution{self: map[string]time.Duration{}, wall: time.Duration(end - start)}
	prevEnd := start
	for e := 0; e < epochs; e++ {
		var extractEnd, syncEnd int64
		for _, s := range extract[e*keysPerEpoch : (e+1)*keysPerEpoch] {
			extractEnd = max(extractEnd, s.End)
		}
		for _, s := range syncs[e*roundsPerEpoch : (e+1)*roundsPerEpoch] {
			syncEnd = max(syncEnd, s.End)
		}
		st := span{Name: "step", Parent: "job", Start: max(extractEnd, prevEnd), End: syncEnd}
		if st.End < st.Start {
			st.End = st.Start
		}
		a.steps = append(a.steps, st)
		a.epochs = append(a.epochs, time.Duration(syncEnd-prevEnd))
		prevEnd = syncEnd
	}

	// Sweep the job's interval; priority order = attribution order.
	kinds := []struct {
		layer string
		spans []span
	}{
		{layerCollective, syncs},
		{layerNN, a.steps},
		{layerTrain, extract},
		{layerDataprep, prep},
	}
	type event struct {
		at    int64
		kind  int
		delta int
	}
	var evs []event
	for k, kind := range kinds {
		for _, s := range kind.spans {
			lo, hi := max(s.Start, start), min(s.End, end)
			if hi <= lo {
				continue
			}
			evs = append(evs, event{lo, k, +1}, event{hi, k, -1})
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	active := make([]int, len(kinds))
	at := start
	attribute := func(until int64) {
		if until <= at {
			return
		}
		layer := layerOther
		for k := range kinds {
			if active[k] > 0 {
				layer = kinds[k].layer
				break
			}
		}
		a.self[layer] += time.Duration(until - at)
		at = until
	}
	for _, ev := range evs {
		attribute(ev.at)
		active[ev.kind] += ev.delta
	}
	attribute(end)
	return a, nil
}
