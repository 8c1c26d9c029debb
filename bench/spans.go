package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// A span is one host-clock interval recorded by the benchmark around a
// call into a layer's public API. Spans live in memory until the run
// ends; the program under test never sees the recorder.
type span struct {
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Op     int           `json:"op"`     // operation the span belongs to (-1: ladder)
	Track  int           `json:"track"`  // rank goroutine, or 0 for the driver
	Parent int           `json:"parent"` // 1-based id of the causing span, 0 for none
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder collects spans. A nil *recorder records nothing and calls
// straight through, so the timed run and the traced run share one driver.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (r *recorder) begin(parent int, layer, name string, op, track int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, span{Layer: layer, Name: name, Op: op, Track: track, Parent: parent, Start: now})
	id := len(r.spans)
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// do records f as a child span of parent.
func (r *recorder) do(parent int, layer, name string, op, track int, f func() error) error {
	if r == nil {
		return f()
	}
	id := r.begin(parent, layer, name, op, track)
	err := f()
	r.end(id)
	return err
}

// selfTimes returns, per span id-1, the span's duration minus the part
// of it its direct children cover. Children on one track run one after
// another, so their durations add; children on other tracks (rank
// goroutines under a driver span) overlap each other and are counted by
// the longest track.
func (r *recorder) selfTimes() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	type key struct{ parent, track int }
	covered := map[key]time.Duration{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			covered[key{s.Parent, s.Track}] += s.End - s.Start
		}
	}
	longest := make([]time.Duration, len(r.spans))
	for k, d := range covered {
		if d > longest[k.parent-1] {
			longest[k.parent-1] = d
		}
	}
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] = s.End - s.Start - longest[i]
	}
	return self
}

// layerSelf sums self time per "layer.name".
func (r *recorder) layerSelf() map[string]time.Duration {
	self := r.selfTimes()
	out := map[string]time.Duration{}
	for i, s := range r.spans {
		out[s.Layer+"."+s.Name] += self[i]
	}
	return out
}

// durations returns the durations of every span named layer.name.
func (r *recorder) durations(layer, name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// writeChrome writes the spans in Chrome trace-event format (one
// complete event per span, one thread per track).
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.Layer + "." + s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Track,
			Args: map[string]int{"id": i + 1, "parent": s.Parent, "op": s.Op},
		}
	}
	r.mu.Unlock()
	blob, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
