package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// tracer records spans around the harness's calls into each layer. One
// tracer belongs to one client goroutine; spans nest strictly (a call
// returns before its caller), so a stack of open spans gives every span
// its parent and its children's total. A nil tracer records nothing: the
// untraced phases pass nil and pay one branch per call site.
type tracer struct {
	epoch  time.Time
	client uint32
	req    uint32
	stack  []openSpan
	kept   []spanRec
	layers map[string]*layerStat
	// dropped counts spans beyond maxKeptSpans: still aggregated, not
	// written to the span file.
	dropped int
}

type openSpan struct {
	name     string
	start    time.Time
	children time.Duration
	idx      int32
}

// spanRec is one finished span as the span file stores it.
type spanRec struct {
	name       string
	req        uint64
	id, parent int32
	start, end time.Duration // since the run's epoch
}

// layerStat aggregates one span name: every duration, and self time (the
// duration minus what its child spans cover). inOp marks spans inside an
// op; the rest (reference ops, bare accelerator runs) run between ops.
type layerStat struct {
	durs     series
	self     time.Duration
	children time.Duration
	inOp     bool
}

// opSpan is the root span of one workload op; the harness's calls into
// each layer are its children.
const opSpan = "op"

// maxKeptSpans bounds the span file per client (about 40 MB of memory).
const maxKeptSpans = 1 << 20

func newTracer(epoch time.Time, client int) *tracer {
	return &tracer{epoch: epoch, client: uint32(client), layers: make(map[string]*layerStat)}
}

// begin opens a span; a span opened with no parent starts a new request.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	if len(t.stack) == 0 {
		t.req++
	}
	idx := int32(-1)
	if len(t.kept) < maxKeptSpans {
		idx = int32(len(t.kept))
		t.kept = append(t.kept, spanRec{name: name})
	}
	t.stack = append(t.stack, openSpan{name: name, start: time.Now(), idx: idx})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Now()
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now.Sub(top.start)
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		t.stack[n-1].children += d
		parent = t.stack[n-1].idx
	}
	ls := t.layers[top.name]
	if ls == nil {
		ls = &layerStat{}
		t.layers[top.name] = ls
	}
	ls.durs.add(d)
	ls.self += d - top.children
	ls.children += top.children
	ls.inOp = top.name == opSpan || len(t.stack) > 0 && t.stack[0].name == opSpan
	if top.idx < 0 {
		t.dropped++
		return
	}
	t.kept[top.idx] = spanRec{
		name: top.name, req: uint64(t.client)<<32 | uint64(t.req),
		id: top.idx, parent: parent,
		start: top.start.Sub(t.epoch), end: now.Sub(t.epoch),
	}
}

// traceSet merges the per-client tracers of one traced phase.
type traceSet struct {
	clients []*tracer
	layers  map[string]*layerStat
}

func mergeTracers(ts ...*tracer) *traceSet {
	s := &traceSet{clients: ts, layers: make(map[string]*layerStat)}
	for _, t := range ts {
		for name, ls := range t.layers {
			m := s.layers[name]
			if m == nil {
				m = &layerStat{}
				s.layers[name] = m
			}
			m.durs = append(m.durs, ls.durs...)
			m.self += ls.self
			m.children += ls.children
			m.inOp = m.inOp || ls.inOp
		}
	}
	return s
}

// layer returns a span name's aggregate (empty if it never ran).
func (s *traceSet) layer(name string) *layerStat {
	if ls := s.layers[name]; ls != nil {
		return ls
	}
	return &layerStat{}
}

// coverage is the share of op-span time that child spans cover.
func (s *traceSet) coverage() float64 {
	ls := s.layer(opSpan)
	return ratio(float64(ls.children), float64(ls.durs.sum()*1e6))
}

// table renders self time per layer, largest first; a layer inside the
// ops also gets its share of the op spans' total.
func (s *traceSet) table() []string {
	names := make([]string, 0, len(s.layers))
	for n := range s.layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return s.layers[names[i]].self > s.layers[names[j]].self })
	total := s.layer(opSpan).durs.sum()
	lines := []string{fmt.Sprintf("%-34s %9s %10s %10s %12s %7s", "layer (self time)", "count", "p50_ms", "p99_ms", "self_ms", "of_op")}
	for _, n := range names {
		ls := s.layers[n]
		self := float64(ls.self.Nanoseconds()) / 1e6
		share := "-"
		if ls.inOp {
			share = fmt.Sprintf("%.1f%%", 100*ratio(self, total))
		}
		lines = append(lines, fmt.Sprintf("%-34s %9d %10.4f %10.4f %12.1f %7s",
			n, len(ls.durs), ls.durs.quantile(0.5), ls.durs.quantile(0.99), self, share))
	}
	return lines
}

// write stores every kept span as CSV: request, span id, parent id
// (-1 for a request's root), name, start and end in ns since the run
// began. Span ids are per client; the request id carries the client in
// its high 32 bits.
func (s *traceSet) write(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req,id,parent,name,start_ns,end_ns")
	n := 0
	for _, t := range s.clients {
		for _, sp := range t.kept {
			if sp.end == 0 {
				continue // still open when the phase ended
			}
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", sp.req, sp.id, sp.parent, sp.name, sp.start.Nanoseconds(), sp.end.Nanoseconds())
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return n, f.Close()
}

// dropped totals spans aggregated but not kept for the span file.
func (s *traceSet) dropped() int {
	n := 0
	for _, t := range s.clients {
		n += t.dropped
	}
	return n
}
