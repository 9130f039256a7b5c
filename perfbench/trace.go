package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the boundary. Name is "<layer>.<call>"; spans
// of one request share Req, and Parent is the ID of the span that caused
// this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory; they are written out once, when the
// run ends. A nil *tracer records nothing, so the untraced path pays one
// nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span and returns the span's ID and duration. With a
// nil tracer it only times f.
func (t *tracer) do(name string, parent, req int64, f func()) (int64, time.Duration) {
	if t == nil {
		start := time.Now()
		f()
		return 0, time.Since(start)
	}
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(start), End: int64(end)})
	t.mu.Unlock()
	return id, end - start
}

// open starts a parent span whose children are recorded before close
// is called. It returns 0 on a nil tracer.
func (t *tracer) open(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	start := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(start), End: -1})
	return id
}

// close ends a span opened with open and returns its duration.
func (t *tracer) close(id int64) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	end := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = int64(end)
	return s.dur()
}

// layer returns the layer a span belongs to: the part of its name before
// the first dot.
func layer(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time: the duration of its spans
// minus the part of each span's interval that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		out[layer(s.Name)] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// writeSelfTimes prints each layer's self time and its share of all
// recorded self time.
func (t *tracer) writeSelfTimes(w io.Writer) {
	self := t.selfTimes()
	var names []string
	var total time.Duration
	for name, d := range self {
		names = append(names, name)
		total += d
	}
	sort.Strings(names)
	for _, name := range names {
		share := 0.0
		if total > 0 {
			share = 100 * float64(self[name]) / float64(total)
		}
		fmt.Fprintf(w, "self time %-9s %12.3f ms  %5.1f %%\n", name, ms(self[name]), share)
	}
}

// writeFile writes every span as one gzip-compressed JSON line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %d spans to %s: %w", n, path, err)
	}
	return nil
}
