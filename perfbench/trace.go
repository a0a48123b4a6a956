package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public function.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // index of the enclosing span, -1 for a root
	tid        int           // client or worker lane, for the trace viewer
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so traced and untraced passes
// run the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent, tid int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, tid: tid})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	return now - t.spans[id].start
}

// total sums the durations of the closed spans named name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	t.each(name, func(d time.Duration) { sum += d })
	return sum
}

// longest returns the largest duration among the spans named name.
func (t *tracer) longest(name string) time.Duration {
	var top time.Duration
	t.each(name, func(d time.Duration) { top = max(top, d) })
	return top
}

func (t *tracer) each(name string, f func(time.Duration)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			f(s.end - s.start)
		}
	}
}

// writeChrome writes the spans as Chrome trace-event JSON, the format
// the repository's -trace flags emit; each event's args carry its span
// id and parent id.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprint(bw, "[\n")
	sep := ""
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		fmt.Fprint(bw, sep)
		sep = ",\n"
		fmt.Fprintf(bw, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}`,
			s.name, s.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent)
	}
	fmt.Fprint(bw, "\n]\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
