package main

// In-memory spans around the benchmark's own calls into each layer,
// written out as JSON lines when the run ends. Nothing inside the engine
// is instrumented: a span covers one call the benchmark makes.

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call. Times are offsets from the tracer's origin.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Query  int64         `json:"query"`  // benchmark query sequence number, 0 outside queries
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans when on; every method is a no-op when off, so
// the untraced run pays only a branch.
type tracer struct {
	on     bool
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// add records a span from absolute times and returns its id (-1 when
// tracing is off).
func (t *tracer) add(name string, parent int, query int64, start, end time.Time) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Query: query, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	return id
}

// phase runs fn inside a span whose id fn receives as parent for its
// own children; the span is recorded when fn returns.
func (t *tracer) phase(name string, parent int, fn func(id int) error) error {
	if !t.on {
		return fn(-1)
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.origin)})
	t.mu.Unlock()
	err := fn(id)
	end := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
	return err
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
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
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time — its duration minus the part
// of it the union of its children covers — indexed by span id.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, kids[i])
	}
	return self
}

// covered returns how much of s the union of children covers, each
// child clipped to s.
func covered(s span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// queryCover returns the mean share of each root "query" span that its
// child spans account for.
func queryCover(spans []span) float64 {
	self := selfTimes(spans)
	var sum float64
	n := 0
	for i, s := range spans {
		if s.Name == "query" && s.dur() > 0 {
			sum += 1 - float64(self[i])/float64(s.dur())
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
