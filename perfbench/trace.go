package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one request share Req; Parent is the ID of the span whose
// interval contains this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept for writing out; durations keep being
// sampled for the per-layer table after the bound is reached.
const maxSpans = 200_000

// tracer records spans in memory during a traced window. A nil *tracer
// records nothing, which is how untraced windows run.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int64
	durs    map[string]*sampler // span name → durations in ns
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), durs: map[string]*sampler{}}
}

// id reserves a span ID, so a parent's ID is known before its children
// are recorded.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores a finished span under a reserved ID.
func (t *tracer) record(name string, id, parent, req uint64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, ID: id, Parent: parent, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	d, ok := t.durs[name]
	if !ok {
		d = newSampler(1<<18, int64(len(t.durs))+1)
		t.durs[name] = d
	}
	d.add(float64(s.End - s.Start))
	t.mu.Unlock()
}

// durations returns a copy of the sampled durations of the named span,
// in the given unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.durs[name]
	if !ok {
		return nil
	}
	out := make([]float64, len(d.vals))
	for i, v := range d.vals {
		out[i] = v / float64(unit)
	}
	return out
}

// p is the q-th percentile of a span's durations in unit, 0 when the
// span was never recorded.
func (t *tracer) p(name string, q float64, unit time.Duration) float64 {
	return percentileOf(t.durations(name, unit), q)
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\":%d}\n", t.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
