package main

import (
	"context"
	"fmt"
	"runtime/debug"

	"pmemcpy"
	"pmemcpy/internal/bytesview"
)

// checkpoint is the data path, the shape of the paper's Figures 6 and 7:
// every step writes vars 3-D float64 variables, each split along dim 0 into
// one edge^3 block per rank, then maps the store again and reads every block
// back. The checkpoint is double-buffered over two slots of ids: step s
// rewrites slot s%2 (Alloc, StoreSub, then Compact to free the block the
// rewrite shadowed), so the previous step stays intact while the next is
// written. BP4 encoding with min/max, CRC32C, and the copy and persist into
// pmem do almost all the work; pmdk sees a few dozen metadata ops per step.
//
// The slots are rewritten in place rather than written under fresh per-step
// ids with the ids of two steps back deleted: with 2 ranks, that pattern
// grows the pool's heap by several blocks per step at this commit (freed
// blocks are not reused), so no finite pool survives a run.
type ckptConfig struct {
	vars    int
	edge    uint64
	devSize int64
}

// 10 variables x 2 ranks x 16 MiB = 320 MiB of user bytes per step, above
// the 300 MiB last-level cache of the 2-core host the sizes were chosen on,
// so no step is served from cache. The 1 GiB device gives a 768 MiB pool
// (the default 3/4 share): two slots plus the blocks a rewrite shadows until
// its Compact.
var ckptDefault = ckptConfig{vars: 10, edge: 128, devSize: 1 << 30}

const ckptPool = "/ckpt.pool"

type ckpt struct {
	b      *bench
	cfg    ckptConfig
	src    [nproc][][]float64
	dst    [nproc][]float64
	gdims  []uint64
	counts []uint64
	block  int64 // bytes per rank per variable
}

func newCkpt(b *bench, cfg ckptConfig) *ckpt {
	w := &ckpt{b: b, cfg: cfg}
	e := cfg.edge
	w.gdims = []uint64{nproc * e, e, e}
	w.counts = []uint64{e, e, e}
	w.block = int64(e * e * e * 8)
	var all [][]float64
	for r := range w.src {
		for range cfg.vars {
			s := make([]float64, e*e*e)
			w.src[r] = append(w.src[r], s)
			all = append(all, s)
		}
		w.dst[r] = make([]float64, e*e*e)
	}
	gaussianParallel(b.seed, streamCheckpoint, all)
	return w
}

func ckptVar(step, k int) string { return fmt.Sprintf("slot%d/v%d", step%2, k) }

// srcFor is the source array of variable k at a step. The mapping rotates
// with the step, so every id's bytes differ from the previous step's and a
// load that leaves its buffer untouched cannot pass verification.
func (w *ckpt) srcFor(r, step, k int) []float64 {
	return w.src[r][(k+step)%w.cfg.vars]
}

// step runs one checkpoint step on one rank: the write half, then the read
// half, which verifies every loaded byte between its calls.
func (w *ckpt) step(rk *rank, c *pmemcpy.Comm, s int) error {
	b, r := w.b, rk.id
	offs := []uint64{uint64(r) * w.cfg.edge, 0, 0}
	var p *pmemcpy.PMEM
	mmap := func() error {
		return rk.call(opMmap, 0, func() (err error) { p, err = pmemcpy.Mmap(c, b.node, ckptPool); return })
	}
	munmap := func() error {
		err := rk.call(opMunmap, 0, p.Munmap)
		if r == 0 && rk.tr != nil {
			b.phaseCtr.add(handleCounters(p))
		}
		return err
	}

	rk.side = sideWrite
	if err := mmap(); err != nil {
		return err
	}
	for k := range w.cfg.vars {
		id, data := ckptVar(s, k), w.srcFor(r, s, k)
		rk.opSpan("checkpoint.store_var")
		rk.call(opAlloc, 0, func() error { return pmemcpy.Alloc[float64](p, id, w.gdims...) })
		rk.call(opStoreBlock, w.block, func() error { return pmemcpy.StoreSub(p, id, data, offs, w.counts) })
		// Frees this rank's block of two steps back, now shadowed.
		rk.call(opCompact, 0, func() error { _, err := pmemcpy.Compact(context.Background(), p, id); return err })
		rk.endOpSpan()
	}
	if err := munmap(); err != nil {
		return err
	}

	rk.side = sideRead
	if err := mmap(); err != nil {
		return err
	}
	for k := range w.cfg.vars {
		id, dst := ckptVar(s, k), w.dst[r]
		rk.opSpan("checkpoint.load_var")
		err := rk.call(opLoadBlock, w.block, func() error { return pmemcpy.LoadSub(p, id, dst, offs, w.counts) })
		// Both ranks verify between the same two barriers, so neither
		// rank's comparison competes with the other's load for memory.
		if berr := c.Barrier(); berr != nil {
			return berr
		}
		// dst still holds the previous variable's bytes, which differ, so a
		// load that wrote nothing fails the check.
		if err == nil {
			rk.check(opLoadBlock, bytesview.Bytes(dst), bytesview.Bytes(w.srcFor(r, s, k)))
		}
		if berr := c.Barrier(); berr != nil {
			return berr
		}
		rk.endOpSpan()
	}
	return munmap()
}

// warmSteps run in set-up, untimed: after them both slots are written and
// every timed step rewrites one, the steady state.
const warmSteps = 2

func (w *ckpt) setup() error {
	b := w.b
	b.node = nil // the previous set-up's node, so its memory is returned first
	debug.FreeOSMemory()
	t0 := now()
	n, err := newNode(w.cfg.devSize)
	if err != nil {
		return err
	}
	b.node = n
	_, err = pmemcpy.Run(b.node, nproc, func(c *pmemcpy.Comm) error {
		rk := b.attach(c, sampleNone)
		for s := range warmSteps {
			if err := w.step(rk, c, s); err != nil {
				return err
			}
		}
		return nil
	})
	b.setupS = append(b.setupS, float64(now()-t0)/1e9)
	return err
}

// timed runs steps until --seconds of them have run, then measures the pool
// footprint and, in a trace run, stores and loads the restart attributes and
// tears the store down (delete every id).
func (w *ckpt) timed() (spaceAmp float64, err error) {
	b := w.b
	debug.FreeOSMemory()
	_, err = pmemcpy.Run(b.node, nproc, func(c *pmemcpy.Comm) error {
		rk := b.attach(c, sampleTimed)
		if err := b.loop(c, rk, b.timeUp, "checkpoint.step", func(i int) error {
			return w.step(rk, c, warmSteps+i)
		}, nil, nil); err != nil {
			return err
		}
		rk.smp = nil
		rk.side = sideWrite
		rk.tr = rk.tracer
		p, err := pmemcpy.Mmap(c, b.node, ckptPool)
		if err != nil {
			return err
		}
		if rk.id == 0 {
			st, err := p.Stats()
			if err != nil {
				return err
			}
			live := 2 * int64(w.cfg.vars) * nproc * w.block
			spaceAmp = float64(st.HeapUsed) / float64(live)
		}
		if b.trace {
			// The step's restart attributes, written and read once here so
			// the scalar path is traced on this store too.
			if rk.id == 0 {
				rk.call(opStoreDatum, 8, func() error { return pmemcpy.Store(p, "step", int64(warmSteps)) })
				var v int64
				if rk.call(opLoadDatum, 8, func() (err error) { v, err = pmemcpy.Load[int64](p, "step"); return }) == nil {
					rk.check(opLoadDatum, bytesview.Bytes([]int64{v}), bytesview.Bytes([]int64{warmSteps}))
				}
			}
			for s := range 2 {
				for k := rk.id; k < w.cfg.vars; k += nproc {
					id := ckptVar(s, k)
					rk.call(opDelete, 0, func() error { _, err := p.Delete(id); return err })
					rk.call(opDelete, 0, func() error { _, err := p.Delete(id + pmemcpy.DimsSuffix); return err })
				}
			}
		}
		return p.Munmap()
	})
	return spaceAmp, err
}
