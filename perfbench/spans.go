package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark
// around the call. Spans of one op share Op; Parent is the index of
// the enclosing span, or -1 for the op's root span.
type Span struct {
	Op         int32
	Parent     int32
	Name       string
	Start, End time.Duration // since the tracer's epoch
}

// Tracer keeps the spans of a traced pass in memory; Write puts them
// on disk once the run is over, so no file I/O lands inside a timed
// op.
type Tracer struct {
	epoch time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Add records a finished span and returns its index.
func (t *Tracer) Add(op, parent int, name string, start, end time.Time) int {
	t.spans = append(t.spans, Span{
		Op: int32(op), Parent: int32(parent), Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch),
	})
	return len(t.spans) - 1
}

// End sets the end of span id, for a span added before it finished.
func (t *Tracer) End(id int, end time.Time) { t.spans[id].End = end.Sub(t.epoch) }

// Spans returns the recorded spans in recording order.
func (t *Tracer) Spans() []Span { return t.spans }

// Write stores the spans as CSV (op, id, parent, name, start_ns,
// end_ns) at path.
func (t *Tracer) Write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,id,parent,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.Op, i, s.Parent, s.Name, int64(s.Start), int64(s.End))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
