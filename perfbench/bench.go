package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"pmemcpy"
	"pmemcpy/internal/sim"
)

// nproc is the rank count of every workload. Each rank is a closed loop: it
// issues its next call only after the previous one returned.
const nproc = 2

var epoch = time.Now()

// now is host monotonic time in ns since the process started.
func now() int64 { return int64(time.Since(epoch)) }

// op is a public-API call kind.
type op int

const (
	opMmap op = iota
	opMunmap
	opAlloc
	opStoreBlock
	opLoadBlock
	opStoreDatum
	opLoadDatum
	opDelete
	opCompact
	nOps
)

var opNames = [nOps]string{"mmap", "munmap", "alloc", "store_block", "load_block",
	"store_datum", "load_datum", "delete", "compact"}

var coreSpan = func() (s [nOps]string) {
	for i, n := range opNames {
		s[i] = "core." + n
	}
	return
}()

// side splits a phase's calls into the write half and the read half; each
// half has its own bandwidth and virtual time.
type side int

const (
	sideWrite side = iota
	sideRead
	nSides
)

// phaseAcc is what one rank did inside the current phase. busy and virt sum
// host and virtual time inside API calls only, so the benchmark's own work
// between calls (input staging, verification) is never charged to the
// library.
type phaseAcc struct {
	busy, virt, bytes, ops [nSides]int64
	start, end             int64
}

// samples holds per-call host latencies in µs.
type samples struct {
	lat [nOps][]float64
}

// newSamples presizes the store and load series, the ones that grow with a
// run's length.
func newSamples(capHint int) *samples {
	s := new(samples)
	for _, o := range []op{opStoreBlock, opLoadBlock} {
		s.lat[o] = make([]float64, 0, capHint)
	}
	return s
}

// rank is one rank's recorder. Only its own goroutine touches it, except
// that rank 0 reads ph after the barrier that closes a phase.
type rank struct {
	id   int
	b    *bench
	clk  *sim.Clock
	side side
	ph   phaseAcc
	smp  *samples // where latencies go; nil discards them (warm-up)

	setupSmp, timedSmp *samples
	attempted, failed  [nOps]int64
	tracedBytes        [nOps]int64 // user bytes moved by traced calls

	tracer *tracer // trace runs only
	tr     *tracer // tracer while the current phase is traced, else nil
}

// call runs one public-API call, timing it on the host and virtual clocks.
// n is the user bytes the call moves. An error counts as a failed op.
func (rk *rank) call(o op, n int64, fn func() error) error {
	if rk.tr != nil {
		rk.tr.begin(coreSpan[o], 0)
	}
	v0 := rk.clk.Now()
	t0 := now()
	err := fn()
	dt := now() - t0
	dv := int64(rk.clk.Now() - v0)
	if rk.tr != nil {
		rk.tr.end(dv, nil)
		if err == nil {
			rk.tracedBytes[o] += n
		}
	}
	rk.attempted[o]++
	if err != nil {
		rk.failed[o]++
		rk.b.noteErr(fmt.Errorf("rank %d %s: %w", rk.id, opNames[o], err))
	}
	s := rk.side
	rk.ph.busy[s] += dt
	rk.ph.virt[s] += dv
	rk.ph.ops[s]++
	if err == nil {
		rk.ph.bytes[s] += n
	}
	if rk.smp != nil {
		rk.smp.lat[o] = append(rk.smp.lat[o], float64(dt)/1e3)
	}
	return err
}

// check compares loaded bytes with the expected ones, outside any timed
// region. A mismatch counts as a failure of op o.
func (rk *rank) check(o op, got, want []byte) bool {
	if bytes.Equal(got, want) {
		return true
	}
	rk.failed[o]++
	rk.b.noteErr(fmt.Errorf("rank %d %s: wrong bytes", rk.id, opNames[o]))
	return false
}

// opSpan opens a benchmark-level op span (an op made of one or more calls
// plus its verification) when the phase is traced.
func (rk *rank) opSpan(name string) {
	if rk.tr != nil {
		rk.tr.begin(name, 0)
	}
}

func (rk *rank) endOpSpan() {
	if rk.tr != nil {
		rk.tr.end(0, nil)
	}
}

// counterDeltas are counter changes across a traced phase. Device counters
// come from pmem.Device.Counters, pmdk and cache counters from
// PMEM.Metrics, heap and GC from the Go runtime. Counters are process-wide,
// so they are only read at phase boundaries, where both ranks are between
// calls.
type counterDeltas struct {
	Persists       int64 `json:"persists"`
	Fences         int64 `json:"fences"`
	PersistedBytes int64 `json:"persisted_bytes"`
	Tx             int64 `json:"tx"`
	Allocs         int64 `json:"allocs"`
	Frees          int64 `json:"frees"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	HeapAllocBytes int64 `json:"heap_alloc_bytes"`
}

func (c *counterDeltas) add(o counterDeltas) {
	c.Persists += o.Persists
	c.Fences += o.Fences
	c.PersistedBytes += o.PersistedBytes
	c.Tx += o.Tx
	c.Allocs += o.Allocs
	c.Frees += o.Frees
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.HeapAllocBytes += o.HeapAllocBytes
}

func (c counterDeltas) sub(o counterDeltas) counterDeltas {
	return counterDeltas{
		Persists:       c.Persists - o.Persists,
		Fences:         c.Fences - o.Fences,
		PersistedBytes: c.PersistedBytes - o.PersistedBytes,
		Tx:             c.Tx - o.Tx,
		Allocs:         c.Allocs - o.Allocs,
		Frees:          c.Frees - o.Frees,
		CacheHits:      c.CacheHits - o.CacheHits,
		CacheMisses:    c.CacheMisses - o.CacheMisses,
		HeapAllocBytes: c.HeapAllocBytes - o.HeapAllocBytes,
	}
}

// newNode creates a node with default options and writes every page of its
// device once. The device emulates PMEM in host memory that the OS hands out
// on first touch, whereas PMEM media are always resident; without this, the
// first store into each page would time the host zeroing it, a cost that
// varies with the host's memory pressure and has nothing to do with the
// library. The device is still all zeros, so the writes change no byte.
func newNode(size int64) (*pmemcpy.Node, error) {
	n := pmemcpy.NewNode(pmemcpy.DefaultConfig(), size)
	mem, err := n.Device.Slice(0, n.Device.Size())
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(mem); i += 4096 {
		mem[i] = 0
	}
	return n, nil
}

// processCounters reads the device and Go heap counters.
func processCounters(n *pmemcpy.Node) counterDeltas {
	d := n.Device.Counters()
	return counterDeltas{Persists: d.Persists, Fences: d.Fences, PersistedBytes: d.PersistedBytes,
		HeapAllocBytes: int64(heapAllocBytes())}
}

// handleCounters reads the pmdk and block-cache counters of a handle group.
// They count from the handle group's Mmap.
func handleCounters(p *pmemcpy.PMEM) counterDeltas {
	m := p.Metrics()
	return counterDeltas{
		Tx:          m.Get("pmemcpy_alloc_transactions_total"),
		Allocs:      m.Get("pmemcpy_alloc_allocs_total"),
		Frees:       m.Get("pmemcpy_alloc_frees_total"),
		CacheHits:   m.Get("pmemcpy_cache_hits_total"),
		CacheMisses: m.Get("pmemcpy_cache_misses_total"),
	}
}

var heapAllocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the cumulative count of Go heap bytes allocated.
func heapAllocBytes() uint64 {
	metrics.Read(heapAllocSample)
	return heapAllocSample[0].Value.Uint64()
}

// series collects one value per closed phase.
type series struct {
	gbps, virtS [nSides][]float64
	opsPerS     []float64
	bytes       [nSides]int64
}

// bench is one run of one workload.
type bench struct {
	seed  uint64
	dur   time.Duration
	trace bool
	ranks [nproc]*rank
	node  *pmemcpy.Node

	setupS       []float64
	setup, timed series

	// Phase control, written by rank 0 before the barrier that opens a
	// phase and read by every rank after it.
	cont, traced atomic.Bool

	// Trace runs: phase rates (ops per wall second) traced and untraced,
	// counter deltas summed over traced phases, and the counters of the
	// current phase.
	tracedRate, untracedRate []float64
	layerCtr, phaseCtr       counterDeltas
	phaseBase                counterDeltas
	layerBytes               [nSides]int64
	layerOps                 int64

	// Host time of the timed phases so far, and the Go heap bytes they
	// allocated (phaseAlloc is the count when the current phase opened).
	measured, allocBytes int64
	phaseAlloc           uint64

	errMu    sync.Mutex
	firstErr error
	errCount int64
}

func newBench(seed uint64, dur time.Duration, trace bool) *bench {
	b := &bench{seed: seed, dur: dur, trace: trace}
	for r := range b.ranks {
		rk := &rank{id: r, b: b}
		if trace {
			rk.tracer = newTracer(r)
		}
		b.ranks[r] = rk
	}
	return b
}

// timeUp is the stop rule of a time-bound loop: the run has measured its
// --seconds of timed phases.
func (b *bench) timeUp(int) bool { return b.measured >= int64(b.dur) }

func (b *bench) noteErr(err error) {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	b.errCount++
	if b.firstErr == nil {
		b.firstErr = err
	}
}

// sampleKind picks where a rank's call latencies go.
type sampleKind int

const (
	sampleNone  sampleKind = iota // discarded (warm-up, durability pass)
	sampleSetup                   // set-up sample set
	sampleTimed                   // timed-phase sample set
)

// attach binds rank c.Rank()'s recorder to a new communicator. In a trace
// run every call made outside a phase is traced too.
func (b *bench) attach(c *pmemcpy.Comm, k sampleKind) *rank {
	rk := b.ranks[c.Rank()]
	rk.clk = c.Clock()
	switch k {
	case sampleSetup:
		rk.smp = rk.setupSmp
	case sampleTimed:
		rk.smp = rk.timedSmp
	default:
		rk.smp = nil
	}
	rk.tr = rk.tracer
	return rk
}

// beginPhase starts a phase on one rank.
func (rk *rank) beginPhase(name string, traced bool) {
	rk.ph = phaseAcc{start: now()}
	rk.tr = nil
	if traced {
		rk.tr = rk.tracer
		rk.tr.begin(name, 0)
	}
}

// phaseStats is one closed phase as both ranks saw it together.
type phaseStats struct {
	ops, wall, busy int64 // busy: the longer rank's time inside calls
	bytes           [nSides]int64
}

// closePhase folds both ranks' phase accumulators into dst. Rank 0 calls
// it after the barrier that ends the phase. Bandwidth per side is the user
// bytes both ranks moved divided by the longer rank's busy time on that
// side; virtual time per side is the longer rank's.
func (b *bench) closePhase(dst *series) phaseStats {
	var busyMax, virtMax, ops [nSides]int64
	var ps phaseStats
	start, end := b.ranks[0].ph.start, b.ranks[0].ph.end
	for _, rk := range b.ranks {
		ph := &rk.ph
		start, end = min(start, ph.start), max(end, ph.end)
		var tot int64
		for s := range nSides {
			busyMax[s] = max(busyMax[s], ph.busy[s])
			virtMax[s] = max(virtMax[s], ph.virt[s])
			ps.bytes[s] += ph.bytes[s]
			ops[s] += ph.ops[s]
			tot += ph.busy[s]
		}
		ps.busy = max(ps.busy, tot)
	}
	ps.wall = end - start
	for s := range nSides {
		ps.ops += ops[s]
		dst.bytes[s] += ps.bytes[s]
		if ops[s] == 0 || ps.bytes[s] == 0 {
			continue
		}
		dst.gbps[s] = append(dst.gbps[s], float64(ps.bytes[s])/float64(busyMax[s]))
		dst.virtS[s] = append(dst.virtS[s], float64(virtMax[s])/1e9)
	}
	dst.opsPerS = append(dst.opsPerS, float64(ps.ops)/(float64(ps.busy)/1e9))
	return ps
}

// tracePhase books a closed timed phase of a trace run: its rate for the
// tracing overhead, and for a traced phase its counters and volumes for the
// per-layer ratios.
func (b *bench) tracePhase(ps phaseStats, traced bool) {
	rate := float64(ps.ops) / (float64(ps.wall) / 1e9)
	if !traced {
		b.untracedRate = append(b.untracedRate, rate)
		return
	}
	b.tracedRate = append(b.tracedRate, rate)
	b.phaseCtr.add(processCounters(b.node).sub(b.phaseBase))
	b.layerCtr.add(b.phaseCtr)
	for s := range nSides {
		b.layerBytes[s] += ps.bytes[s]
	}
	b.layerOps += ps.ops
}

// loop runs body as one phase after another on every rank until stop(i)
// reports true for the next phase index, with a barrier opening and one
// closing each phase. Rank 0 decides whether another phase runs and whether
// it is traced, and closes each phase. In a trace run, traced and untraced
// phases alternate in the pattern traced, untraced, untraced, traced, so a
// steady drift over a run biases neither side. startFn and endFn, when set,
// run on rank 0 just before a phase opens and just after it closes (counter
// snapshots).
func (b *bench) loop(c *pmemcpy.Comm, rk *rank, stop func(i int) bool, name string,
	body func(i int) error, startFn, endFn func(traced bool)) error {
	for i := 0; ; i++ {
		if rk.id == 0 {
			traced := b.trace && (i%4 == 0 || i%4 == 3)
			b.cont.Store(!stop(i))
			b.traced.Store(traced)
			b.phaseAlloc = heapAllocBytes()
			if traced {
				b.phaseCtr = counterDeltas{}
				b.phaseBase = processCounters(b.node)
			}
			if startFn != nil {
				startFn(traced)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if !b.cont.Load() {
			return nil
		}
		traced := b.traced.Load()
		rk.beginPhase(name, traced)
		err := body(i)
		rk.ph.end = now()
		if berr := c.Barrier(); berr != nil {
			return berr
		}
		var ctr *counterDeltas
		if rk.id == 0 {
			if endFn != nil {
				endFn(traced)
			}
			ps := b.closePhase(&b.timed)
			b.measured += ps.wall
			b.allocBytes += int64(heapAllocBytes() - b.phaseAlloc)
			if b.trace {
				b.tracePhase(ps, traced)
			}
			if traced {
				d := b.phaseCtr
				ctr = &d
			}
			runtime.GC() // the other rank waits at the next phase's barrier
		}
		if traced {
			rk.tr.end(0, ctr)
		}
		rk.tr = nil
		if err != nil {
			return err
		}
	}
}

// totals sums attempted and failed ops over ranks and op kinds.
func (b *bench) totals() (attempted, failed int64) {
	for _, rk := range b.ranks {
		for o := range nOps {
			attempted += rk.attempted[o]
			failed += rk.failed[o]
		}
	}
	return
}

// perRank returns each rank's latencies of op o, in call order, from the
// setup or timed sample sets.
func (b *bench) perRank(o op, setup bool) [][]float64 {
	var out [][]float64
	for _, rk := range b.ranks {
		s := rk.timedSmp
		if setup {
			s = rk.setupSmp
		}
		out = append(out, s.lat[o])
	}
	return out
}

// gcState is the runtime's GC cycle count and total pause time.
type gcState struct {
	cycles  uint32
	pauseNS uint64
}

func readGC() gcState {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcState{ms.NumGC, ms.PauseTotalNs}
}
