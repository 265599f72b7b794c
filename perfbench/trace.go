package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Tracing, on in --trace 1 runs only. Every call the benchmark makes into a
// layer gets a span: calls into the public pmemcpy API (the core layer)
// during the workload, and the replayed calls into serial, checksum, nd, pmdk
// and pmem afterwards. The benchmark's own ops and phases get spans too, so
// each span has a parent, and the spans of one op share an op id. Spans are
// recorded from outside the layers; nothing inside the library is turned on
// (neither WithTracing nor WithMetrics).
//
// Each rank owns its tracer, so recording takes no lock. Spans stay in memory
// and are written out at exit; past maxSpans they are only aggregated.

const maxSpans = 200_000

type span struct {
	Name     string         `json:"name"`
	Rank     int            `json:"rank"`
	ID       int64          `json:"id"`
	Parent   int64          `json:"parent"` // -1 for a root span
	Op       int64          `json:"op"`
	Start    int64          `json:"start_ns"`
	End      int64          `json:"end_ns"`
	VirtNS   int64          `json:"virt_ns,omitempty"`
	Counters *counterDeltas `json:"counters,omitempty"`
}

// openSpan is a span on a tracer's stack. child sums the durations of its
// finished children, which never overlap because one goroutine records them.
type openSpan struct {
	name         string
	id, parent   int64
	op           int64
	start, child int64
}

// spanAgg is the per-name summary: self time is a span's duration minus the
// part of it its child spans cover.
type spanAgg struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
	VirtNS  int64 `json:"virt_ns"`

	durs, virts []float64 // per span, µs: medians for the per-layer metrics
}

type tracer struct {
	rank    int
	seq     int64
	stack   []openSpan
	spans   []span
	agg     map[string]*spanAgg
	dropped int64
}

func newTracer(rank int) *tracer {
	return &tracer{rank: rank, agg: make(map[string]*spanAgg)}
}

// newOp returns a fresh op id, unique across ranks.
func (t *tracer) newOp() int64 {
	t.seq++
	return int64(t.rank)<<40 | t.seq
}

// begin opens a span. op 0 inherits the enclosing span's op id; a root span
// with op 0 starts a new op.
func (t *tracer) begin(name string, op int64) {
	t.seq++
	parent := int64(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
		if op == 0 {
			op = t.stack[n-1].op
		}
	}
	if op == 0 {
		op = t.newOp()
	}
	t.stack = append(t.stack, openSpan{name: name, id: int64(t.rank)<<40 | t.seq, parent: parent, op: op, start: now()})
}

// end closes the innermost span with its virtual-clock time and, for phase
// spans, the counter deltas measured across it.
func (t *tracer) end(virt int64, c *counterDeltas) {
	end := now()
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	dur := end - s.start
	if n > 0 {
		t.stack[n-1].child += dur
	}
	a := t.agg[s.name]
	if a == nil {
		a = new(spanAgg)
		t.agg[s.name] = a
	}
	a.Count++
	a.TotalNS += dur
	a.SelfNS += dur - s.child
	a.VirtNS += virt
	a.durs = append(a.durs, float64(dur)/1e3)
	a.virts = append(a.virts, float64(virt)/1e3)
	if len(t.spans) >= maxSpans/nproc {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{Name: s.name, Rank: t.rank, ID: s.id, Parent: s.parent, Op: s.op,
		Start: s.start, End: end, VirtNS: virt, Counters: c})
}

// mergeAgg sums the per-name summaries of several tracers.
func mergeAgg(ts []*tracer) map[string]*spanAgg {
	out := make(map[string]*spanAgg)
	for _, t := range ts {
		for name, a := range t.agg {
			o := out[name]
			if o == nil {
				o = new(spanAgg)
				out[name] = o
			}
			o.Count += a.Count
			o.TotalNS += a.TotalNS
			o.SelfNS += a.SelfNS
			o.VirtNS += a.VirtNS
			o.durs = append(o.durs, a.durs...)
			o.virts = append(o.virts, a.virts...)
		}
	}
	return out
}

// writeTrace writes every kept span and the per-name self-time summary to
// dir/trace-<workload>-<seed>.json and prints the summary to stderr.
func writeTrace(dir, workload string, seed uint64, ts []*tracer) (string, error) {
	agg := mergeAgg(ts)
	names := make([]string, 0, len(agg))
	for name := range agg {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return agg[names[i]].SelfNS > agg[names[j]].SelfNS })
	fmt.Fprintf(os.Stderr, "%-28s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, name := range names {
		a := agg[name]
		fmt.Fprintf(os.Stderr, "%-28s %9d %12.3f %12.3f\n", name, a.Count, float64(a.TotalNS)/1e6, float64(a.SelfNS)/1e6)
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	var spans []span
	var dropped int64
	for _, t := range ts {
		spans = append(spans, t.spans...)
		dropped += t.dropped
	}
	doc := struct {
		Workload string              `json:"workload"`
		Seed     uint64              `json:"seed"`
		Dropped  int64               `json:"dropped_spans"`
		Self     map[string]*spanAgg `json:"self"`
		Spans    []span              `json:"spans"`
	}{workload, seed, dropped, agg, spans}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
