package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// Span is one bench-side timed call into a layer. Spans of one
// replayed request share Req; Parent is the enclosing span's ID (0 at
// the root). Allocs and Bytes are process-wide runtime.MemStats deltas
// over the span, which attribute to the call because the traced run
// makes one call at a time.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
}

// Dur is the span's wall-clock length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends.
type Tracer struct {
	epoch time.Time
	spans []Span
	open  map[int]runtime.MemStats
}

func newTracer() *Tracer {
	return &Tracer{epoch: time.Now(), open: map[int]runtime.MemStats{}}
}

// Open starts a span and returns its ID; Close ends it.
func (t *Tracer) Open(name string, parent, req int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name})
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.open[id] = m
	t.spans[id-1].Start = int64(time.Since(t.epoch))
	return id
}

// Close ends the span opened as id.
func (t *Tracer) Close(id int) {
	end := int64(time.Since(t.epoch))
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := t.open[id]
	delete(t.open, id)
	s := &t.spans[id-1]
	s.End = end
	s.Allocs = m.Mallocs - before.Mallocs
	s.Bytes = m.TotalAlloc - before.TotalAlloc
}

// Time runs fn inside a span and returns the span's ID.
func (t *Tracer) Time(name string, parent, req int, fn func() error) (int, error) {
	id := t.Open(name, parent, req)
	err := fn()
	t.Close(id)
	return id, err
}

// Span returns the recorded span with the given ID.
func (t *Tracer) Span(id int) Span { return t.spans[id-1] }

// selfTime is a span's duration minus the part of its interval that
// its children cover. Overlapping children are merged first, so time
// two concurrent children share is subtracted once.
func selfTime(spans []Span, id int) time.Duration {
	var parent Span
	var iv [][2]int64
	for _, s := range spans {
		if s.ID == id {
			parent = s
		}
	}
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		a, b := max(s.Start, parent.Start), min(s.End, parent.End)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := int64(0)
	curA, curB := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	if curB > curA {
		covered += curB - curA
	}
	return parent.Dur() - time.Duration(covered)
}

// byName groups spans by name.
func (t *Tracer) byName(name string) []Span {
	var out []Span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write stores every span as one JSON line.
func (t *Tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// Record adds a span timed by the caller, such as a decode window
// measured from when its last round was due to when its correction
// arrived.
func (t *Tracer) Record(name string, parent, req int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return id
}
