package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Tracing is done from this side of the wire: one root span per pipelined
// window, with the four client-visible stages as children, and one span
// per ladder rung. Spans are kept in memory and written when the run ends.

// maxWindowSpans caps the windows kept per connection. get_window completes
// ~10 000 windows a second per connection; the span-derived metrics use
// every window (they go to histograms), the file keeps the first few
// thousand so it stays readable.
const maxWindowSpans = 2000

// windowSpan is one window's timestamps: start of encoding, end of
// encoding, flush returned, first reply read, last reply read.
type windowSpan struct {
	seq  uint64
	ops  int
	late time.Duration // open loop only: start minus intended send time
	t    [5]time.Time
}

// spanLog collects one connection's window spans.
type spanLog struct {
	windows []windowSpan
	total   uint64
}

func (l *spanLog) add(w windowSpan) {
	w.seq = l.total
	l.total++
	if len(l.windows) < maxWindowSpans {
		l.windows = append(l.windows, w)
	}
}

// jsonSpan is the file format: times are nanoseconds since the trace epoch.
type jsonSpan struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Ops    int    `json:"ops,omitempty"`
	LateNs int64  `json:"late_ns,omitempty"`
}

type traceFile struct {
	Workload        string             `json:"workload"`
	Seed            int64              `json:"seed"`
	WindowsTotal    uint64             `json:"windows_total"`
	WindowsRecorded int                `json:"windows_recorded"`
	Counters        map[string]float64 `json:"counters"`
	Spans           []jsonSpan         `json:"spans"`
}

var windowStages = [4]string{"nvclient.encode", "nvclient.flush", "nvclient.wait", "nvclient.drain"}

func (tf *traceFile) addWindows(epoch time.Time, conn int, l *spanLog) {
	tf.WindowsTotal += l.total
	tf.WindowsRecorded += len(l.windows)
	for _, w := range l.windows {
		root := fmt.Sprintf("%d:%d", conn, w.seq)
		tf.Spans = append(tf.Spans, jsonSpan{ID: root, Name: "window", Ops: w.ops, LateNs: int64(w.late),
			Start: int64(w.t[0].Sub(epoch)), End: int64(w.t[4].Sub(epoch))})
		for i, stage := range windowStages {
			tf.Spans = append(tf.Spans, jsonSpan{ID: root + "/" + stage, Parent: root, Name: stage,
				Start: int64(w.t[i].Sub(epoch)), End: int64(w.t[i+1].Sub(epoch))})
		}
	}
}

func (tf *traceFile) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+tf.Workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
