package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime/debug"

	"pmemcpy"
	"pmemcpy/internal/bytesview"
)

// update is the metadata path: writes beside reads on the same ids. Each rank
// owns records 1-D float64 records of recLen elements (4 KiB) and attrs
// scalar attributes. A seeded, Zipf-skewed closed loop issues about 50%
// whole-record overwrites (StoreSub), 40% record loads (LoadSub) and 10%
// scalar Store/Load, and compacts a record after every compactEvery-th
// overwrite of it. Every overwrite appends a block that shadows the
// previous ones until that compaction, and a load gathers every block still
// stored, so a load's shadow depth runs from 1 to compactEvery. pmdk
// transactions, alloc/free and the hashtable, cache invalidation and the
// shadowed-block gathers dominate; payload bytes are tiny. The working set
// (16 MiB of records plus their shadows) fits in the last-level cache, where
// checkpoint's and restart's do not.
//
// The timed phase runs in epochs of epochRounds rounds, each on a freshly
// populated store (populated untimed). At this commit the cost of a store
// grows with the number of ops the store has seen: pmdk's allocator scans
// a free list that grows without bound under this mix, so no steady state
// exists. A run that went on from one population would measure a different
// store state the faster the host ran; epochs pin the measured state to
// the first epochRounds*roundOps ops per rank after population.
type updateConfig struct {
	records, recLen, attrs int
	compactEvery           int
	roundOps               int // ops per rank per phase
	epochRounds            int // phases per epoch
	devSize                int64
	// The crash-tracked durability pass after the timed phase.
	durRecords, durAttrs, durOps int
	durDevSize                   int64
}

var updateDefault = updateConfig{
	records: 2048, recLen: 512, attrs: 256,
	compactEvery: 8,
	roundOps:     1000,
	epochRounds:  40,
	devSize:      512 << 20,
	durRecords:   128, durAttrs: 32, durOps: 2000,
	durDevSize: 64 << 20,
}

const (
	updatePool = "/update.pool"
	tapeLen    = 1 << 16 // per-rank Gaussian values that payloads are cut from
)

// Op mix thresholds on a uniform draw.
const (
	mixOverwrite = 0.50
	mixLoad      = 0.90
	mixAttrStore = 0.95
)

// updRank is one rank's inputs and its model of what the store must hold.
type updRank struct {
	ids, attrIDs []string
	model        [][]float64 // acknowledged content of each record
	attrs        []float64   // acknowledged value of each attribute
	depth        []int       // blocks stored for each record since its last compaction
	tape         []float64
	rnd          *rand.Rand
	keys         *keyPicker
	buf          []float64
}

// newUpdRank draws one rank's inputs. Each record starts at a seeded shadow
// depth, uniform over 1..compactEvery: every record's depth cycles through
// those values as it is overwritten and compacted, whatever its key's
// popularity, so starting there puts the store in its steady state from the
// first timed op instead of letting cold records deepen through the run.
func newUpdRank(seed, stream uint64, rank, records, recLen, attrs, compactEvery int) *updRank {
	st := &updRank{
		ids: make([]string, records), attrIDs: make([]string, attrs),
		model: make([][]float64, records), attrs: make([]float64, attrs), depth: make([]int, records),
		tape: make([]float64, tapeLen), buf: make([]float64, recLen),
	}
	gaussian(seed, stream, st.tape)
	st.rnd = newRand(seed, stream+1)
	st.keys = newKeyPicker(st.rnd, records)
	for i := range st.ids {
		st.ids[i] = fmt.Sprintf("r%d/rec%d", rank, i)
		st.model[i] = make([]float64, recLen)
		copy(st.model[i], st.window(recLen))
		st.depth[i] = 1 + st.rnd.IntN(compactEvery)
	}
	for j := range st.attrIDs {
		st.attrIDs[j] = fmt.Sprintf("r%d/attr%d", rank, j)
		st.attrs[j] = st.tape[st.rnd.IntN(tapeLen)]
	}
	return st
}

// window is a seeded slice of the tape: a fresh Gaussian payload.
func (st *updRank) window(n int) []float64 {
	off := st.rnd.IntN(tapeLen - n)
	return st.tape[off : off+n]
}

type update struct {
	b   *bench
	cfg updateConfig
	st  [nproc]*updRank
	// Shadow depth seen by each rank's loads in traced phases.
	depths [nproc]struct{ loads, deep, sum int64 }
}

func newUpdate(b *bench, cfg updateConfig) *update { return &update{b: b, cfg: cfg} }

// populate stores every record of one rank as many times as its starting
// shadow depth, the last time with its modelled content, and every
// attribute once.
func (w *update) populate(rk *rank, st *updRank, p *pmemcpy.PMEM) {
	rk.side = sideWrite
	cnt := []uint64{uint64(w.cfg.recLen)}
	zero := []uint64{0}
	for i, id := range st.ids {
		rk.call(opAlloc, 0, func() error { return pmemcpy.Alloc[float64](p, id, cnt...) })
		for d := st.depth[i]; d > 0; d-- {
			data := st.model[i]
			if d > 1 {
				data = st.window(w.cfg.recLen)
			}
			rk.call(opStoreBlock, int64(len(data)*8), func() error { return pmemcpy.StoreSub(p, id, data, zero, cnt) })
		}
	}
	for j, id := range st.attrIDs {
		v := st.attrs[j]
		rk.call(opStoreDatum, 8, func() error { return pmemcpy.Store(p, id, v) })
	}
}

// op issues one seeded op and verifies what it read.
func (w *update) op(rk *rank, st *updRank, p *pmemcpy.PMEM) {
	L := w.cfg.recLen
	cnt := []uint64{uint64(L)}
	zero := []uint64{0}
	switch u := st.rnd.Float64(); {
	case u < mixOverwrite:
		i := st.keys.next()
		data := st.window(L)
		rk.side = sideWrite
		rk.opSpan("update.overwrite")
		if rk.call(opStoreBlock, int64(L*8), func() error { return pmemcpy.StoreSub(p, st.ids[i], data, zero, cnt) }) == nil {
			copy(st.model[i], data)
			st.depth[i]++
		}
		if st.depth[i] > w.cfg.compactEvery {
			id := st.ids[i]
			if rk.call(opCompact, 0, func() error { _, err := pmemcpy.Compact(context.Background(), p, id); return err }) == nil {
				st.depth[i] = 1
			}
		}
		rk.endOpSpan()
	case u < mixLoad:
		i := st.keys.next()
		for k := range st.buf {
			st.buf[k] = math.NaN()
		}
		rk.side = sideRead
		rk.opSpan("update.load")
		if rk.tr != nil && rk.smp != nil { // traced timed phases only
			d := &w.depths[rk.id]
			d.loads++
			d.sum += int64(st.depth[i])
			if st.depth[i] > 1 {
				d.deep++
			}
		}
		if rk.call(opLoadBlock, int64(L*8), func() error { return pmemcpy.LoadSub(p, st.ids[i], st.buf, zero, cnt) }) == nil {
			rk.check(opLoadBlock, bytesview.Bytes(st.buf), bytesview.Bytes(st.model[i]))
		}
		rk.endOpSpan()
	case u < mixAttrStore:
		j := st.rnd.IntN(len(st.attrIDs))
		v := st.tape[st.rnd.IntN(tapeLen)]
		rk.side = sideWrite
		if rk.call(opStoreDatum, 8, func() error { return pmemcpy.Store(p, st.attrIDs[j], v) }) == nil {
			st.attrs[j] = v
		}
	default:
		j := st.rnd.IntN(len(st.attrIDs))
		var v float64
		rk.side = sideRead
		if rk.call(opLoadDatum, 8, func() (err error) { v, err = pmemcpy.Load[float64](p, st.attrIDs[j]); return }) == nil {
			rk.check(opLoadDatum, bytesview.Bytes([]float64{v}), bytesview.Bytes(st.attrs[j:j+1]))
		}
	}
}

// prepare builds a node, populates every record and attribute and runs one
// untimed warm-up round: the start of a set-up and of every epoch. Each
// epoch draws its inputs from its own streams, and each preparation counts
// as one set-up in setup_s.
func (w *update) prepare(epoch int) error {
	b, cfg := w.b, w.cfg
	b.node = nil // the previous store's node, so its memory is returned first
	debug.FreeOSMemory()
	t0 := now()
	n, err := newNode(cfg.devSize)
	if err != nil {
		return err
	}
	b.node = n
	_, err = pmemcpy.Run(b.node, nproc, func(c *pmemcpy.Comm) error {
		rk := b.attach(c, sampleNone)
		stream := streamUpdate + uint64(epoch)<<8 + uint64(rk.id)<<2
		st := newUpdRank(b.seed, stream, rk.id, cfg.records, cfg.recLen, cfg.attrs, cfg.compactEvery)
		w.st[rk.id] = st
		p, err := pmemcpy.Mmap(c, b.node, updatePool)
		if err != nil {
			return err
		}
		w.populate(rk, st, p)
		for range cfg.roundOps {
			w.op(rk, st, p)
		}
		return p.Munmap()
	})
	b.setupS = append(b.setupS, float64(now()-t0)/1e9)
	return err
}

// setup is the first epoch's preparation. The rank state starts over each
// time, so every set-up repetition does the same work.
func (w *update) setup() error { return w.prepare(0) }

// timed runs whole epochs until --seconds of rounds have run; the first
// epoch uses the store set-up left. After the last epoch it measures the
// pool footprint against the live user bytes and, in a trace run, checks
// the stated shadow depth against the store's block counts and tears the
// store down.
func (w *update) timed() (spaceAmp float64, err error) {
	b := w.b
	for epoch := 0; epoch == 0 || !b.timeUp(0); epoch++ {
		if epoch > 0 {
			if err := w.prepare(epoch); err != nil {
				return 0, err
			}
		}
		debug.FreeOSMemory()
		if spaceAmp, err = w.epoch(); err != nil {
			return 0, err
		}
	}
	return spaceAmp, nil
}

// epoch runs one epoch's rounds on the current store.
func (w *update) epoch() (spaceAmp float64, err error) {
	b, cfg := w.b, w.cfg
	var base counterDeltas
	_, err = pmemcpy.Run(b.node, nproc, func(c *pmemcpy.Comm) error {
		rk := b.attach(c, sampleTimed)
		st := w.st[rk.id]
		var p *pmemcpy.PMEM
		if err := rk.call(opMmap, 0, func() (err error) { p, err = pmemcpy.Mmap(c, b.node, updatePool); return }); err != nil {
			return err
		}
		err := b.loop(c, rk, func(i int) bool { return i >= cfg.epochRounds }, "update.round", func(int) error {
			for range cfg.roundOps {
				w.op(rk, st, p)
			}
			return nil
		}, func(traced bool) {
			if traced {
				base = handleCounters(p)
			}
		}, func(traced bool) {
			if traced {
				b.phaseCtr.add(handleCounters(p).sub(base))
			}
		})
		if err != nil {
			return err
		}
		rk.smp = nil
		rk.tr = rk.tracer
		if err := c.Barrier(); err != nil {
			return err
		}
		if rk.id == 0 {
			s, err := p.Stats()
			if err != nil {
				return err
			}
			live := int64(nproc) * int64(cfg.records*cfg.recLen*8+cfg.attrs*8)
			spaceAmp = float64(s.HeapUsed) / float64(live)
		}
		if b.trace && b.timeUp(0) {
			w.checkDepth(rk, st, p)
			rk.side = sideWrite
			for _, id := range st.ids {
				rk.call(opDelete, 0, func() error { _, err := p.Delete(id); return err })
			}
		}
		return rk.call(opMunmap, 0, p.Munmap)
	})
	return spaceAmp, err
}

// checkDepth compares the shadow depth the workload tracks with the number
// of blocks the store holds per record, and reports any difference on
// stderr: the depth is a stated property of the workload, not a library
// contract, so a change that compacts more eagerly is not a failure.
func (w *update) checkDepth(rk *rank, st *updRank, p *pmemcpy.PMEM) {
	off := 0
	for i, id := range st.ids {
		bs, err := p.BlockStatsOf(id)
		if err != nil || len(bs) != st.depth[i] {
			off++
		}
	}
	if off > 0 {
		fmt.Fprintf(os.Stderr, "rank %d: %d of %d records hold a block count other than the tracked shadow depth\n",
			rk.id, off, len(st.ids))
	}
}

// durability runs a short update sequence on a crash-tracked node, cuts
// power with every unpersisted line lost while the handles are still open,
// maps the store again and checks that every acknowledged write reads back.
// Untimed.
func (w *update) durability() error {
	b, cfg := w.b, w.cfg
	n := pmemcpy.NewNode(pmemcpy.DefaultConfig(), cfg.durDevSize, pmemcpy.WithCrashTracking())
	var sts [nproc]*updRank
	_, err := pmemcpy.Run(n, nproc, func(c *pmemcpy.Comm) error {
		rk := b.attach(c, sampleNone)
		rk.tr = nil
		st := newUpdRank(b.seed, streamDurability+uint64(rk.id)<<2, rk.id, cfg.durRecords, cfg.recLen, cfg.durAttrs, cfg.compactEvery)
		sts[rk.id] = st
		p, err := pmemcpy.Mmap(c, n, updatePool)
		if err != nil {
			return err
		}
		w.populate(rk, st, p)
		for range cfg.durOps {
			w.op(rk, st, p)
		}
		return nil // no Munmap: the crash hits open handles
	})
	if err != nil {
		return err
	}
	pmemcpy.SimulateCrash(n, pmemcpy.CrashLoseAll, nil)
	_, err = pmemcpy.Run(n, nproc, func(c *pmemcpy.Comm) error {
		rk := b.attach(c, sampleNone)
		rk.tr = nil
		st := sts[rk.id]
		p, err := pmemcpy.Mmap(c, n, updatePool)
		if err != nil {
			return err
		}
		cnt := []uint64{uint64(cfg.recLen)}
		for i, id := range st.ids {
			if rk.call(opLoadBlock, int64(cfg.recLen*8), func() error { return pmemcpy.LoadSub(p, id, st.buf, []uint64{0}, cnt) }) == nil {
				rk.check(opLoadBlock, bytesview.Bytes(st.buf), bytesview.Bytes(st.model[i]))
			}
		}
		for j, id := range st.attrIDs {
			var v float64
			if rk.call(opLoadDatum, 8, func() (err error) { v, err = pmemcpy.Load[float64](p, id); return }) == nil {
				rk.check(opLoadDatum, bytesview.Bytes([]float64{v}), bytesview.Bytes(st.attrs[j:j+1]))
			}
		}
		return p.Munmap()
	})
	return err
}
