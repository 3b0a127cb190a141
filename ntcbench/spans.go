package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// noParent marks a root span.
const noParent = -1

// span is one timed call into a layer. Times are offsets from the
// recorder's epoch; parent indexes the enclosing span (noParent for a
// root); id names the scenario or request the call served.
type span struct {
	Name   string        `json:"name"`
	ID     string        `json:"id,omitempty"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use; a nil recorder records nothing, so untraced passes
// share code with traced ones.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its handle for end and for children.
func (r *recorder) begin(name, id string, parent int) int {
	if r == nil {
		return noParent
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(h int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[h].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile dumps every span as JSON.
func (r *recorder) writeFile(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover. Children may overlap one another
// (parallel calls under one parent); overlapping parts count once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != noParent {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, reach := time.Duration(0), s.Start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// layerTimes groups spans by name: total duration, total self time
// and the individual durations.
type layerStat struct {
	total, self time.Duration
	durs        latencies
}

func layerTimes(spans []span) map[string]*layerStat {
	self := selfTimes(spans)
	out := make(map[string]*layerStat)
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.total += s.dur()
		st.self += self[i]
		st.durs = append(st.durs, s.dur())
	}
	return out
}
