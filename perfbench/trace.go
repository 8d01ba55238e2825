package main

// The traced run's span recorder. Spans are recorded by the benchmark
// around its own calls into each layer of the program; the program's own
// spans are not touched. Spans live in memory until the run ends, then go
// to a JSONL file and into a self-time table.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	DurNS  int64  `json:"dur_ns"`
	Thread int    `json:"thread"` // the client or stage that issued it
	Attrs  []attr `json:"attrs,omitempty"`
}

type attr struct {
	Key   string  `json:"k"`
	Value float64 `json:"v"`
}

// recorder keeps spans in memory. A nil *recorder records nothing, which is
// how untraced runs skip every span at the cost of one nil check.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []spanRec
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// span is an open span; end closes it.
type span struct {
	r      *recorder
	id     int64
	parent int64
	name   string
	thread int
	start  time.Time
	attrs  []attr
}

// start opens a span under parent (0 for a root) and returns it. On a nil
// recorder it returns a nil span whose methods do nothing.
func (r *recorder) start(name string, parent *span, thread int) *span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	s := &span{r: r, id: id, name: name, thread: thread, start: time.Now()}
	if parent != nil {
		s.parent = parent.id
	}
	return s
}

func (s *span) set(key string, v float64) {
	if s != nil {
		s.attrs = append(s.attrs, attr{key, v})
	}
}

func (s *span) end() { s.endAt(time.Now()) }

// endAt closes the span at a time observed elsewhere, such as a telemetry
// event's timestamp.
func (s *span) endAt(t time.Time) {
	if s == nil {
		return
	}
	rec := spanRec{ID: s.id, Parent: s.parent, Name: s.name, Thread: s.thread,
		Start: s.start.Sub(s.r.epoch).Nanoseconds(), DurNS: t.Sub(s.start).Nanoseconds(), Attrs: s.attrs}
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, rec)
	s.r.mu.Unlock()
}

// add records a span whose start and end were observed elsewhere.
func (r *recorder) add(name string, parent *span, thread int, start, end time.Time) {
	if r == nil {
		return
	}
	s := r.start(name, parent, thread)
	s.start = start
	s.endAt(end)
}

func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the span count, total time and self
// time: a span's duration minus the part of it its children cover.
func (r *recorder) selfTimes() []layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64][]*spanRec)
	for i := range r.spans {
		s := &r.spans[i]
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*layerTime)
	for i := range r.spans {
		s := &r.spans[i]
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.Total += time.Duration(s.DurNS)
		lt.Self += time.Duration(s.DurNS - covered(s, children[s.ID]))
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p *spanRec, kids []*spanRec) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.Start+k.DurNS, p.Start+p.DurNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, -1 << 62
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

type layerTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

func printSelfTimes(w io.Writer, lts []layerTime) {
	fmt.Fprintf(w, "%-28s %9s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "self_us/op")
	for _, lt := range lts {
		fmt.Fprintf(w, "%-28s %9d %12.1f %12.1f %10.2f\n", lt.Name, lt.Count,
			ms(lt.Total), ms(lt.Self), float64(lt.Self.Nanoseconds())/1e3/float64(lt.Count))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
