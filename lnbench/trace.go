package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Spans of one operation
// share ID: (ssrc<<16 | seq) for media packets, the RPC token for
// lookups. Parent is the index of the span that caused this one, or -1.
// Start and End are nanoseconds since the tracer was created.
type Span struct {
	Name       string
	ID         uint64
	Parent     int32
	Start, End int64
}

// layerAgg accumulates every span of one name, sampled or not.
type layerAgg struct {
	n     int64
	sumNs int64
	work  int64 // units of work the spans covered (datagrams for a batch send)
	durs  []float64
}

// maxSpans bounds the in-memory span log; aggregates keep counting past it.
const maxSpans = 1 << 20

// maxDurs bounds the per-name duration sample used for percentiles.
const maxDurs = 1 << 20

// Tracer records spans in memory; they are written out when the run
// ends. A nil *Tracer records nothing, so untraced runs pay one nil check
// per wrapped call.
type Tracer struct {
	base time.Time

	mu      sync.Mutex
	spans   []Span
	dropped int64
	agg     map[string]*layerAgg
}

func newTracer() *Tracer {
	return &Tracer{base: time.Now(), agg: make(map[string]*layerAgg)}
}

// now is the tracer clock (ns since creation).
func (t *Tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a span covering `work` units and returns its index (or -1
// when the log is full; the aggregate still counts it). keep=false
// counts the span in the aggregates only, for calls too frequent to log
// one by one.
func (t *Tracer) add(name string, id uint64, parent int32, start, end int64, work int64, keep bool) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[name]
	if a == nil {
		a = &layerAgg{}
		t.agg[name] = a
	}
	a.n++
	a.sumNs += end - start
	a.work += work
	if len(a.durs) < maxDurs {
		a.durs = append(a.durs, float64(end-start))
	}
	if !keep {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, Span{Name: name, ID: id, Parent: parent, Start: start, End: end})
	return int32(len(t.spans) - 1)
}

// stat returns the aggregate for name (zero value when never recorded).
func (t *Tracer) stat(name string) layerAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg[name]; a != nil {
		return *a
	}
	return layerAgg{}
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its children (clipped to the parent, overlapping
// children counted once).
func selfTimes(spans []Span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start
		ch := kids[int32(i)]
		if len(ch) == 0 {
			continue
		}
		iv := make([][2]int64, 0, len(ch))
		for _, c := range ch {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		covered, curA, curB := int64(0), int64(-1), int64(-1)
		for _, v := range iv {
			if v[0] > curB {
				covered += curB - curA
				curA, curB = v[0], v[1]
			} else if v[1] > curB {
				curB = v[1]
			}
		}
		covered += curB - curA
		out[i] -= covered
	}
	return out
}

// selfByName returns the self times (ns) of the logged spans named name.
func (t *Tracer) selfByName(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(self[i]))
		}
	}
	return out
}

// writeTo dumps the span log as tab-separated lines
// (name, id, parent, start_ns, end_ns).
func (t *Tracer) writeTo(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# spans=%d dropped=%d\n", len(t.spans), t.dropped)
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.Name, s.ID, s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setParent links a logged span to the span that caused it.
func (t *Tracer) setParent(child, parent int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(child) < len(t.spans) {
		t.spans[child].Parent = parent
	}
}
