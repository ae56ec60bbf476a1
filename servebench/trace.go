package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's entry point, recorded by the
// benchmark around the call. Spans of one request share req; a phase
// span is the parent of every request span it replays.
type span struct {
	name   string
	parent int32
	req    int32
	start  time.Duration
	end    time.Duration
}

// recorder keeps spans in a buffer allocated up front; begin and end
// take no lock and allocate nothing. Spans past the buffer's end are
// counted and dropped.
type recorder struct {
	epoch   time.Time
	buf     []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), buf: make([]span, capacity)}
}

// begin opens a span and returns its id, -1 when the buffer is full.
func (r *recorder) begin(name string, parent int32, req int) int32 {
	i := r.n.Add(1) - 1
	if i >= int64(len(r.buf)) {
		r.dropped.Add(1)
		return -1
	}
	r.buf[i] = span{name: name, parent: parent, req: int32(req), start: time.Since(r.epoch)}
	return int32(i)
}

// end closes a span opened by begin. Only the goroutine that opened a
// span ends it.
func (r *recorder) end(id int32) {
	if id >= 0 {
		r.buf[id].end = time.Since(r.epoch)
	}
}

// spans returns the recorded spans; call once every writer is done.
func (r *recorder) spans() []span {
	n := r.n.Load()
	if n > int64(len(r.buf)) {
		n = int64(len(r.buf))
	}
	return r.buf[:n]
}

// write stores the spans as JSON lines, one span per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		ID      int32  `json:"id"`
		Name    string `json:"name"`
		Parent  int32  `json:"parent"`
		Req     int32  `json:"req"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	for i, s := range r.spans() {
		if err := enc.Encode(line{int32(i), s.name, s.parent, s.req, int64(s.start), int64(s.end)}); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// selfP50MS derives each layer's self time from the spans: the median
// duration of the layer's request spans minus the median of the next
// layer down, replayed on the same schedule. names lists the layers
// top down; the last one has no layer below it and is left out.
func selfP50MS(spans []span, names []string) map[string]float64 {
	durs := make(map[string][]float64)
	for _, s := range spans {
		if s.end > s.start {
			durs[s.name] = append(durs[s.name], ms(s.end-s.start))
		}
	}
	self := make(map[string]float64)
	for i := 0; i+1 < len(names); i++ {
		self[names[i]] = median(durs[names[i]]) - median(durs[names[i+1]])
	}
	return self
}
