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
	"time"
)

// span is one timed call the harness made into a layer. Parent is the
// index of the enclosing span in the same tracer (-1 for a root); ID is
// the batch, grid job or shard the call served (-1 when it served none).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written out when the run
// ends. A nil *tracer records nothing, so untraced runs pay one nil check
// per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// begin opens a span ending at the matching end call and returns its index.
func (t *tracer) begin(name string, parent, id int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span timed by the caller.
func (t *tracer) add(name string, parent, id int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// spanStat aggregates the spans of one name: how many, their summed
// duration and their summed self time (duration minus the part of it
// covered by child spans).
type spanStat struct {
	name        string
	count       int
	total, self time.Duration
}

// stats aggregates the finished spans by name, in order of first use.
func (t *tracer) stats() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	index := map[string]int{}
	var out []spanStat
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		k, ok := index[s.Name]
		if !ok {
			k = len(out)
			index[s.Name] = k
			out = append(out, spanStat{name: s.Name})
		}
		dur := s.End - s.Start
		out[k].count++
		out[k].total += time.Duration(dur)
		out[k].self += time.Duration(dur - t.covered(s, children[i]))
	}
	return out
}

// covered returns how much of s the union of its children spans.
func (t *tracer) covered(s span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := t.spans[k]
		if c.End < 0 {
			continue
		}
		ivs = append(ivs, iv{max(c.Start, s.Start), min(c.End, s.End)})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, reach int64 = 0, s.Start
	for _, v := range ivs {
		a := max(v.a, reach)
		if v.b > a {
			sum += v.b - a
			reach = v.b
		}
	}
	return sum
}

// writeTable prints the per-name span table.
func (t *tracer) writeTable(w io.Writer) {
	fmt.Fprintf(w, "%-40s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range t.stats() {
		fmt.Fprintf(w, "%-40s %8d %12.3f %12.3f\n", s.name, s.count,
			float64(s.total)/1e6, float64(s.self)/1e6)
	}
}

// dump writes the provenance record and then every span as JSON lines.
func (t *tracer) dump(path string, prov provenance) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(prov)
	t.mu.Lock()
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
