package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call (spans inside the program are future work).
type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent is the index of the enclosing span, -1 for a root.
	Parent int32 `json:"parent"`
	// Req identifies the request (or step, or flush) the span served.
	Req int64 `json:"req"`
}

// tracer keeps spans in a buffer allocated up front, so recording a
// span costs two clock reads and no allocation. A nil *tracer records
// nothing: the untraced run passes nil.
type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// begin opens a span and returns its index, or -1 when t is nil or the
// buffer is full.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{Name: name, Start: int64(time.Since(t.epoch)), End: -1, Parent: parent, Req: req}
	return int32(i)
}

// end closes span i.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
}

// record adds a finished span whose bounds were observed elsewhere (an
// httptrace callback) and returns its index.
func (t *tracer) record(name string, parent int32, req int64, start, end time.Time) int32 {
	i := t.begin(name, parent, req)
	if i >= 0 {
		t.spans[i].Start = int64(start.Sub(t.epoch))
		t.spans[i].End = int64(end.Sub(t.epoch))
	}
	return i
}

// recorded returns the spans recorded so far, indexed as their Parent
// fields refer to them; a span still open reads End == -1.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	return t.spans[:min(t.next.Load(), int64(len(t.spans)))]
}

// write saves the spans as a JSON array, one span a line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := writeSpans(w, t.recorded()); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func writeSpans(w io.Writer, spans []span) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, s := range spans {
		b, err := json.Marshal(s)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(spans)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", b, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// layerTime is the per-span-name summary of a trace.
type layerTime struct {
	Name  string
	Count int
	// Total is the summed span duration; Self subtracts the part of
	// each span its children cover.
	Total, Self time.Duration
}

// selfTimes summarises closed spans by name. A span's self time is its
// duration minus the union of its children's intervals clipped to it,
// so overlapping children are not subtracted twice.
func selfTimes(spans []span) []layerTime {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*layerTime)
	var names []string
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			names = append(names, s.Name)
		}
		dur := s.End - s.Start
		lt.Count++
		lt.Total += time.Duration(dur)
		lt.Self += time.Duration(dur - covered(s, children[int32(i)]))
	}
	sort.Strings(names)
	out := make([]layerTime, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}

// covered is the length of the union of kids' intervals inside s.
func covered(s span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curEnd int64
	curEnd = s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, curEnd), min(k.End, s.End)
		if hi > lo {
			total += hi - lo
		}
		curEnd = max(curEnd, min(k.End, s.End))
	}
	return total
}
