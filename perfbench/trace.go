package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around the program's public entry points. Req is the id
// spans of one request share where the boundary carries one (the
// X-Request-ID header, the idempotency key forwarded to a shard, the
// request id of a choice); Parent is resolved when the run ends.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the payload size a transport span moved (request plus
	// response body).
	Bytes int64 `json:"bytes,omitempty"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	t0 time.Time
	// on limits recording to the measured phase: the decorators stay
	// installed through set-up, warm-up and the final drain.
	on    atomic.Bool
	seq   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// measure switches span recording on or off (no-op when untraced).
func (t *tracer) measure(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the tracer clock (0 when untraced).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// add records a finished span and returns its id.
func (t *tracer) add(sp span) uint64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	sp.ID = t.seq.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp.ID
}

// record adds a span that started at start and ends now; its parent
// is resolved when the run ends.
func (t *tracer) record(name, req string, start int64) uint64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	return t.add(span{Name: name, Req: req, Start: start, End: t.now()})
}

// stage records a duration-only child span reported by the program's
// own stage hook (SubmitSpec.Span): the hook gives no start time, so
// the child is placed at its parent's start.
func (t *tracer) stage(name string, parent uint64, parentStart int64, seconds float64) {
	if t == nil || !t.on.Load() {
		return
	}
	t.add(span{Name: name, Parent: parent, Start: parentStart, End: parentStart + int64(seconds*1e9)})
}

// analysis indexes the finished spans by name and parent.
type analysis struct {
	spans    []span
	byName   map[string][]int
	children map[uint64][]int
}

// resolve links spans without a recorded parent to their callers:
// first by a shared request id with a span of one of the parent names,
// then by time containment. A span contained in several candidate
// parents (two clients overlapping) is given to the latest-starting
// one, the innermost caller.
func (t *tracer) resolve(links map[string][]string) *analysis {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	a := &analysis{spans: spans, byName: map[string][]int{}, children: map[uint64][]int{}}
	for i := range spans {
		a.byName[spans[i].Name] = append(a.byName[spans[i].Name], i)
	}
	byReq := map[string]map[string]int{}
	for i, sp := range spans {
		if sp.Req == "" {
			continue
		}
		if byReq[sp.Name] == nil {
			byReq[sp.Name] = map[string]int{}
		}
		byReq[sp.Name][sp.Req] = i
	}
	for child, parents := range links {
		for _, ci := range a.byName[child] {
			c := &spans[ci]
			if c.Parent != 0 {
				continue
			}
			if c.Req != "" {
				for _, pn := range parents {
					if pi, ok := byReq[pn][c.Req]; ok {
						c.Parent = spans[pi].ID
						break
					}
				}
			}
			if c.Parent != 0 {
				continue
			}
			var best *span
			for _, pn := range parents {
				for _, pi := range a.byName[pn] {
					p := &spans[pi]
					if p.Start <= c.Start && c.End <= p.End && (best == nil || p.Start > best.Start) {
						best = p
					}
				}
			}
			if best != nil {
				c.Parent = best.ID
			}
		}
	}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			a.children[p] = append(a.children[p], i)
		}
	}
	return a
}

// durations returns the durations in ms of every span with this name.
func (a *analysis) durations(name string) []float64 {
	var out []float64
	for _, i := range a.byName[name] {
		out = append(out, a.spans[i].ms())
	}
	return out
}

// selfTimes returns, per span with this name, its duration minus the
// part of its interval covered by its children (optionally only the
// children with one of the given names).
func (a *analysis) selfTimes(name string, childNames ...string) []float64 {
	want := map[string]bool{}
	for _, n := range childNames {
		want[n] = true
	}
	var out []float64
	for _, i := range a.byName[name] {
		p := a.spans[i]
		var iv [][2]int64
		for _, ci := range a.children[p.ID] {
			c := a.spans[ci]
			if len(want) > 0 && !want[c.Name] {
				continue
			}
			iv = append(iv, [2]int64{max(c.Start, p.Start), min(c.End, p.End)})
		}
		out = append(out, float64(p.End-p.Start-covered(iv))/1e6)
	}
	return out
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	first := true
	var start int64
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if first || x[0] > end {
			if !first {
				total += end - start
			}
			start, end, first = x[0], x[1], false
			continue
		}
		if x[1] > end {
			end = x[1]
		}
	}
	if !first {
		total += end - start
	}
	return total
}

// table prints the per-layer span table: count, median and p99
// duration, and median self time, per span name.
func (a *analysis) table(w io.Writer) {
	names := make([]string, 0, len(a.byName))
	for n := range a.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %8s %10s %10s %10s\n", "span", "count", "p50_ms", "p99_ms", "self_p50")
	for _, n := range names {
		d := a.durations(n)
		fmt.Fprintf(w, "%-28s %8d %10.4f %10.4f %10.4f\n", n, len(d), median(d), quantile(d, 0.99), median(a.selfTimes(n)))
	}
}

// write stores the spans as JSON lines.
func (a *analysis) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range a.spans {
		if err := enc.Encode(&a.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
