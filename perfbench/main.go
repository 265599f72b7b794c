// Command perfbench is the repository's benchmark: three workloads driven
// through the public pmemcpy API by 2 closed-loop ranks with default options
// (BP4, synchronous, VerifyOff, one copy worker), each checking every loaded
// byte against its seeded generator.
//
//	perfbench --workload checkpoint|restart|update --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// interleaves traced and untraced phases, replays each internal layer on the
// workload's inputs, and prints the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// See README.md for what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/nd"
	"pmemcpy/internal/serial"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is what main needs from each of the three.
type workload interface {
	setup() error
	timed() (spaceAmp float64, err error)
	// finish runs untimed checks after the timed phase.
	finish() error
	// depth returns the traced loads' mean shadow depth and the share of
	// them deeper than 1.
	depth() (mean, deepShare float64)
	replayIn() replayIn
}

// plan is how a workload is measured: how many times a run sets it up
// before its timed phase (setup_s is the median of every set-up, and the
// last one before the timed phase is measured; restart and update set up
// again within it), and the window, in calls of one rank, over which each
// latency tail is taken. restart takes its store figures from its set-ups,
// 40 stores per rank each.
type plan struct {
	setups, storeWindow, loadWindow int
	samples                         int // expected calls of one kind per rank in a run
}

var plans = map[string]plan{
	"checkpoint": {setups: 3, storeWindow: 100, loadWindow: 100, samples: 4096},
	"restart":    {setups: 1, storeWindow: 40, loadWindow: 100, samples: 1 << 14},
	"update":     {setups: 1, storeWindow: 200, loadWindow: 200, samples: 1 << 18},
}

func main() {
	name := flag.String("workload", "", "checkpoint, restart or update")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for the trace file")
	flag.Parse()
	res, err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func newWorkload(name string, b *bench) (workload, error) {
	switch name {
	case "checkpoint":
		return newCkpt(b, ckptDefault), nil
	case "restart":
		return newRestart(b, restartDefault)
	case "update":
		return newUpdate(b, updateDefault), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want checkpoint, restart or update)", name)
}

func run(name string, seed uint64, dur time.Duration, trace bool, outDir string) (*result, error) {
	// The Go collector runs only between phases, where rank 0 starts it
	// while both ranks wait (see bench.loop), so no collection lands inside
	// a timed call and every phase starts from the same heap state. The
	// limit is a backstop that lets it run anyway before the heap passes
	// 2.5 GiB (the checkpoint workload holds about 1.4 GiB live).
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(5 << 29)
	gc0 := readGC()
	b := newBench(seed, dur, trace)
	w, err := newWorkload(name, b)
	if err != nil {
		return nil, err
	}
	pl := plans[name]
	for _, rk := range b.ranks {
		// Sized for a run, so appends in timed phases do not allocate.
		rk.setupSmp, rk.timedSmp = newSamples(pl.samples/8), newSamples(pl.samples)
	}
	nSetup := pl.setups
	if trace {
		nSetup = 1
	}
	for range nSetup {
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	spaceAmp, err := w.timed()
	if err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	if err := w.finish(); err != nil {
		return nil, err
	}
	attempted, failed := b.totals()
	fmt.Fprint(os.Stderr, "attempted/failed per op:")
	for o := range nOps {
		var a, f int64
		for _, rk := range b.ranks {
			a, f = a+rk.attempted[o], f+rk.failed[o]
		}
		fmt.Fprintf(os.Stderr, " %s %d/%d", opNames[o], a, f)
	}
	fmt.Fprintln(os.Stderr)
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if b.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%d errors; first: %v\n", b.errCount, b.firstErr)
	}
	gc := readGC()
	fmt.Fprintf(os.Stderr, "gc: %d cycles, %.3f ms paused\n", gc.cycles-gc0.cycles, float64(gc.pauseNS-gc0.pauseNS)/1e6)
	if trace {
		err = layerMetrics(b, w, name, outDir, gc0, gc, res.Metrics)
	} else {
		err = endToEnd(b, name, pl, spaceAmp, res.Metrics)
	}
	if err != nil {
		return nil, err
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no measured value", k)
		}
	}
	return res, nil
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(b *bench, name string, pl plan, spaceAmp float64, m map[string]metric) error {
	// restart's timed phase only reads; its write-side figures come from
	// the measured write of its set-up.
	writes, storeFromSetup := &b.timed, false
	if name == "restart" {
		writes, storeFromSetup = &b.setup, true
	}
	m["setup_s"] = metric{median(b.setupS), "s"}
	m["write_gbps"] = metric{median(writes.gbps[sideWrite]), "GB/s"}
	m["read_gbps"] = metric{median(b.timed.gbps[sideRead]), "GB/s"}
	m["virt_write_s"] = metric{median(writes.virtS[sideWrite]), "s"}
	m["virt_read_s"] = metric{median(b.timed.virtS[sideRead]), "s"}
	m["ops_per_s"] = metric{median(b.timed.opsPerS), "1/s"}
	moved := b.timed.bytes[sideWrite] + b.timed.bytes[sideRead]
	m["alloc_b_per_b"] = metric{float64(b.allocBytes) / float64(moved), "B/B"}
	m["space_amp"] = metric{spaceAmp, "ratio"}
	for _, l := range []struct {
		prefix string
		o      op
		setup  bool
		window int
	}{{"store", opStoreBlock, storeFromSetup, pl.storeWindow}, {"load", opLoadBlock, false, pl.loadWindow}} {
		perRank := b.perRank(l.o, l.setup)
		var all []float64
		for _, xs := range perRank {
			all = append(all, xs...)
		}
		m[l.prefix+"_p50_us"] = metric{median(all), "us"}
		v, pct, windows, n, ok := windowTail(perRank, l.window)
		if !ok {
			return fmt.Errorf("%s latency: %d samples, too few for a tail", l.prefix, n)
		}
		m[l.prefix+"_tail_us"] = metric{v, "us"}
		fmt.Fprintf(os.Stderr, "%s_tail_us is p%.3f, median over %d windows of %d calls (%d samples)\n",
			l.prefix, pct, windows, l.window, n)
	}
	return nil
}

// layerMetrics computes the per-layer metrics of a trace run and writes the
// trace file.
func layerMetrics(b *bench, w workload, name, outDir string, gc0, gc gcState, m map[string]metric) error {
	tracers := []*tracer{b.ranks[0].tracer, b.ranks[1].tracer}
	lo, err := replayLayers(b.ranks[0].tracer, w.replayIn())
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	agg := mergeAgg(tracers)
	for o := range nOps {
		a := agg[coreSpan[o]]
		if a == nil {
			return fmt.Errorf("no traced %s call", coreSpan[o])
		}
		m["core."+opNames[o]+"_us"] = metric{median(a.durs), "us"}
	}
	m["core.store_block_virt_us"] = metric{median(agg[coreSpan[opStoreBlock]].virts), "us"}
	m["core.load_block_virt_us"] = metric{median(agg[coreSpan[opLoadBlock]].virts), "us"}
	c := b.layerCtr
	m["core.cache_hit_ratio"] = metric{ratio(c.CacheHits, c.CacheHits+c.CacheMisses), "ratio"}
	depth, deep := w.depth()
	m["core.load_shadow_depth"] = metric{depth, "blocks"}
	m["core.load_deep_share"] = metric{deep, "ratio"}

	var stored int64
	for _, rk := range b.ranks {
		stored += rk.tracedBytes[opStoreBlock]
	}
	storeNS := float64(agg[coreSpan[opStoreBlock]].TotalNS)
	for k, v := range lo {
		unit := "us"
		switch {
		case strings.HasSuffix(k, "_gbps"):
			unit = "GB/s"
		case k == "nd.place_alloc_b_per_b":
			unit = "B/B"
		case k == "nd.runs_per_load":
			unit = "runs"
		}
		m[k] = metric{v, unit}
	}
	// A layer's share of store time: its replayed cost for the bytes the
	// traced stores moved, over those stores' host time.
	m["serial.encode_share"] = metric{float64(stored) / lo["serial.encode_gbps"] / storeNS, "ratio"}
	m["checksum.share"] = metric{float64(stored) / lo["checksum.sum_gbps"] / storeNS, "ratio"}

	ops := float64(b.layerOps)
	m["pmdk.tx_per_op"] = metric{float64(c.Tx) / ops, "tx/op"}
	m["pmdk.allocs_per_op"] = metric{float64(c.Allocs) / ops, "allocs/op"}
	m["pmem.persisted_b_per_b"] = metric{ratio(c.PersistedBytes, b.layerBytes[sideWrite]), "B/B"}
	m["pmem.persists_per_op"] = metric{float64(c.Persists) / ops, "1/op"}
	m["pmem.fences_per_op"] = metric{float64(c.Fences) / ops, "1/op"}
	m["go.gc_cycles"] = metric{float64(gc.cycles - gc0.cycles), "count"}
	m["go.gc_pause_ms"] = metric{float64(gc.pauseNS-gc0.pauseNS) / 1e6, "ms"}
	m["trace_overhead_pct"] = metric{100 * (median(b.untracedRate)/median(b.tracedRate) - 1), "%"}

	// The benchmark's own share of traced phase time: self time of its
	// phase and op spans (staging, verification, barriers) over the phases.
	var self, phases float64
	for k, a := range agg {
		if strings.HasPrefix(k, name+".") {
			self += float64(a.SelfNS)
		}
	}
	for _, k := range []string{"checkpoint.step", "restart.pass", "update.round"} {
		if a := agg[k]; a != nil {
			phases += float64(a.TotalNS)
		}
	}
	m["bench.self_share"] = metric{self / phases, "ratio"}

	path, err := writeTrace(outDir, name, b.seed, tracers)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	fmt.Fprintln(os.Stderr, "trace written to", path)
	return nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// --- per-workload hooks ---

func (w *ckpt) finish() error                { return nil }
func (w *ckpt) depth() (float64, float64)    { return 1, 0 }
func (w *restart) finish() error             { return nil }
func (w *restart) depth() (float64, float64) { return 1, 0 }
func (w *update) finish() error              { return w.durability() }

func (w *update) depth() (float64, float64) {
	var loads, deep, sum int64
	for _, d := range w.depths {
		loads += d.loads
		deep += d.deep
		sum += d.sum
	}
	if loads == 0 {
		return math.NaN(), math.NaN()
	}
	return float64(sum) / float64(loads), float64(deep) / float64(loads)
}

func datumOf(data []float64, counts []uint64) *serial.Datum {
	return &serial.Datum{Type: serial.Float64, Dims: counts, Payload: bytesview.Bytes(data)}
}

func encodedSize(d *serial.Datum) int64 {
	c, err := serial.Get("bp4")
	if err != nil {
		panic(err) // bp4 registers itself at init
	}
	return int64(c.EncodedSize(d))
}

func (w *ckpt) replayIn() replayIn {
	var in replayIn
	for r := range nproc {
		offs := []uint64{uint64(r) * w.cfg.edge, 0, 0}
		for k := range 2 {
			data := w.src[r][k]
			in.blocks = append(in.blocks, datumOf(data, w.counts))
			blk := ndBlock{offs: offs, counts: w.counts, data: func() []byte { return bytesview.Bytes(data) }}
			in.loads = append(in.loads, ndLoad{offs: offs, counts: w.counts, blocks: []ndBlock{blk}})
		}
	}
	for s := range 2 {
		for k := range w.cfg.vars {
			in.keys = append(in.keys, ckptVar(s, k), ckptVar(s, k)+"#dims")
		}
	}
	in.keys = append(in.keys, "step")
	in.allocSize = encodedSize(in.blocks[0])
	return in
}

func (w *restart) replayIn() replayIn {
	var in replayIn
	tiles := w.boxes(w.cfg.tile)
	tile := func(offs []uint64) func() []byte {
		return func() []byte {
			buf := make([]float64, vol(w.cfg.tile))
			w.extract(buf, offs, w.cfg.tile[:])
			return bytesview.Bytes(buf)
		}
	}
	for _, offs := range tiles[:4] {
		in.blocks = append(in.blocks, datumOf(bytesview.OfCopy[float64](tile(offs)()), w.cfg.tile[:]))
	}
	for _, offs := range w.boxes(w.cfg.box)[:6] {
		ld := ndLoad{offs: offs, counts: w.cfg.box[:]}
		for _, t := range tiles {
			if _, _, ok := nd.Intersect(offs, ld.counts, t, w.cfg.tile[:]); ok {
				ld.blocks = append(ld.blocks, ndBlock{offs: t, counts: w.cfg.tile[:], data: tile(t)})
			}
		}
		in.loads = append(in.loads, ld)
	}
	in.keys = []string{restartField, restartField + "#dims", "step", "time"}
	in.allocSize = encodedSize(in.blocks[0])
	return in
}

func (w *update) replayIn() replayIn {
	var in replayIn
	st := w.st[0]
	cnt := []uint64{uint64(w.cfg.recLen)}
	keys := newKeyPicker(newRand(w.b.seed, streamUpdate+2), w.cfg.records)
	for range 256 {
		i := keys.next()
		data := st.model[i]
		in.blocks = append(in.blocks, datumOf(data, cnt))
		ld := ndLoad{offs: []uint64{0}, counts: cnt}
		for range st.depth[i] {
			ld.blocks = append(ld.blocks, ndBlock{offs: []uint64{0}, counts: cnt, data: func() []byte { return bytesview.Bytes(data) }})
		}
		in.loads = append(in.loads, ld)
	}
	for _, id := range st.ids {
		in.keys = append(in.keys, id, id+"#dims")
	}
	in.keys = append(in.keys, st.attrIDs...)
	in.allocSize = encodedSize(in.blocks[0])
	return in
}
