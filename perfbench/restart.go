package main

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"

	"pmemcpy"
	"pmemcpy/internal/bytesview"
)

// restart is the gather path, read only. Set-up writes one 3-D float64 field
// larger than the last-level cache as tiles from 2 writer ranks; the timed
// phase re-reads it, pass after pass, as boxes of a different grid, so every
// request crosses two or more stored tiles in each dimension and gathers
// them in strided runs. nd's intersection placement and the block-index
// cache do the work; no encode, alloc, transaction or persist runs.
type restartConfig struct {
	dims, tile, box [3]uint64
	devSize         int64
}

// 240x240x720 float64 = 316 MiB (above the 300 MiB last-level cache). Tiles
// are 48x60x180 (80 tiles of 4 MiB); read boxes are 40x80x240 (54 boxes of
// 6 MiB), so no box boundary meets a tile boundary except at the domain
// edge, and each box spans 2 tiles in y and x and 1 or 2 in z: 4 or 8 tiles.
var restartDefault = restartConfig{
	dims:    [3]uint64{240, 240, 720},
	tile:    [3]uint64{48, 60, 180},
	box:     [3]uint64{40, 80, 240},
	devSize: 512 << 20,
}

const (
	restartPool  = "/restart.pool"
	restartField = "field"
)

type restart struct {
	b     *bench
	cfg   restartConfig
	ref   []float64 // the whole field, as generated
	order []int     // seeded order of the read boxes; rank r reads every nproc-th from r
	buf   [nproc][]float64
	want  [nproc][]float64
}

func newRestart(b *bench, cfg restartConfig) (*restart, error) {
	w := &restart{b: b, cfg: cfg}
	n := len(w.boxes(cfg.box))
	if n%nproc != 0 {
		// Every rank must load the same number of boxes: the loads and
		// checks step in lockstep through barriers.
		return nil, fmt.Errorf("restart: %d read boxes do not split evenly over %d ranks", n, nproc)
	}
	// Edge boxes cross fewer tiles than inner ones, so which rank reads
	// which box sets each rank's share of the gather work.
	w.order = newRand(b.seed, streamRestart-1).Perm(n)
	d := cfg.dims
	w.ref = make([]float64, d[0]*d[1]*d[2])
	// Generate in dim-0 slabs, one stream each, two at a time.
	var slabs [][]float64
	plane := int(d[1] * d[2])
	for z := 0; z < int(d[0]); z += 16 {
		slabs = append(slabs, w.ref[z*plane:min(z+16, int(d[0]))*plane])
	}
	gaussianParallel(b.seed, streamRestart, slabs)
	bufLen := max(vol(cfg.tile), vol(cfg.box))
	for r := range w.buf {
		w.buf[r] = make([]float64, bufLen)
		w.want[r] = make([]float64, bufLen)
	}
	return w, nil
}

func vol(c [3]uint64) uint64 { return c[0] * c[1] * c[2] }

// boxes lists the boxes of a grid of box shape c over the field, row-major.
func (w *restart) boxes(c [3]uint64) (offs [][]uint64) {
	d := w.cfg.dims
	for z := uint64(0); z < d[0]; z += c[0] {
		for y := uint64(0); y < d[1]; y += c[1] {
			for x := uint64(0); x < d[2]; x += c[2] {
				offs = append(offs, []uint64{z, y, x})
			}
		}
	}
	return offs
}

// extract copies the box (offs, counts) of the generated field into dst row
// by row. It is the benchmark's own copy, independent of package nd, so a
// gather bug in nd cannot also hide in the expected values.
func (w *restart) extract(dst []float64, offs, counts []uint64) {
	d := w.cfg.dims
	i := uint64(0)
	for z := uint64(0); z < counts[0]; z++ {
		for y := uint64(0); y < counts[1]; y++ {
			src := ((offs[0]+z)*d[1]+offs[1]+y)*d[2] + offs[2]
			copy(dst[i:i+counts[2]], w.ref[src:src+counts[2]])
			i += counts[2]
		}
	}
}

// write stores the field's tiles, split round-robin over the ranks, and the
// restart attributes.
func (w *restart) write(rk *rank, c *pmemcpy.Comm) error {
	r := rk.id
	rk.side = sideWrite
	var p *pmemcpy.PMEM
	if err := rk.call(opMmap, 0, func() (err error) { p, err = pmemcpy.Mmap(c, w.b.node, restartPool); return }); err != nil {
		return err
	}
	d := w.cfg.dims
	rk.call(opAlloc, 0, func() error { return pmemcpy.Alloc[float64](p, restartField, d[:]...) })
	counts := w.cfg.tile[:]
	n := vol(w.cfg.tile)
	for j, offs := range w.boxes(w.cfg.tile) {
		if j%nproc != r {
			continue
		}
		data := w.buf[r][:n]
		w.extract(data, offs, counts)
		rk.opSpan("restart.store_tile")
		rk.call(opStoreBlock, int64(n*8), func() error { return pmemcpy.StoreSub(p, restartField, data, offs, counts) })
		rk.endOpSpan()
	}
	if r == 0 {
		rk.call(opStoreDatum, 8, func() error { return pmemcpy.Store(p, "step", int64(1000)) })
		rk.call(opStoreDatum, 8, func() error { return pmemcpy.Store(p, "time", math.Pi) })
	}
	return rk.call(opMunmap, 0, p.Munmap)
}

// pass re-reads the whole field as boxes, split over the ranks in the seeded
// order, verifying each box against the generated field after its load
// returns.
func (w *restart) pass(rk *rank, c *pmemcpy.Comm) error {
	b, r := w.b, rk.id
	rk.side = sideRead
	var p *pmemcpy.PMEM
	if err := rk.call(opMmap, 0, func() (err error) { p, err = pmemcpy.Mmap(c, b.node, restartPool); return }); err != nil {
		return err
	}
	var step int64
	var tm float64
	if rk.call(opLoadDatum, 8, func() (err error) { step, err = pmemcpy.Load[int64](p, "step"); return }) == nil {
		rk.check(opLoadDatum, bytesview.Bytes([]int64{step}), bytesview.Bytes([]int64{1000}))
	}
	if rk.call(opLoadDatum, 8, func() (err error) { tm, err = pmemcpy.Load[float64](p, "time"); return }) == nil {
		rk.check(opLoadDatum, bytesview.Bytes([]float64{tm}), bytesview.Bytes([]float64{math.Pi}))
	}
	counts := w.cfg.box[:]
	n := vol(w.cfg.box)
	boxes := w.boxes(w.cfg.box)
	for j := r; j < len(boxes); j += nproc {
		offs, dst := boxes[w.order[j]], w.buf[r][:n]
		rk.opSpan("restart.read_box")
		err := rk.call(opLoadBlock, int64(n*8), func() error { return pmemcpy.LoadSub(p, restartField, dst, offs, counts) })
		// Both ranks verify between the same two barriers, so neither
		// rank's comparison competes with the other's load for memory.
		if berr := c.Barrier(); berr != nil {
			return berr
		}
		if err == nil {
			// The buffer last held a different box (or a tile), so a load
			// that wrote nothing fails here.
			want := w.want[r][:n]
			w.extract(want, offs, counts)
			rk.check(opLoadBlock, bytesview.Bytes(dst), bytesview.Bytes(want))
		}
		if berr := c.Barrier(); berr != nil {
			return berr
		}
		rk.endOpSpan()
	}
	err := rk.call(opMunmap, 0, p.Munmap)
	if r == 0 && rk.tr != nil {
		b.phaseCtr.add(handleCounters(p))
	}
	return err
}

// setup builds a node, writes the field (a measured write phase: restart's
// write metrics come from here) and runs one untimed warm-up pass.
func (w *restart) setup() error {
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
		rk := b.attach(c, sampleSetup)
		if err := c.Barrier(); err != nil {
			return err
		}
		rk.ph = phaseAcc{start: now()}
		err := w.write(rk, c)
		rk.ph.end = now()
		if berr := c.Barrier(); berr != nil {
			return berr
		}
		if rk.id == 0 {
			b.closePhase(&b.setup)
		}
		if err != nil {
			return err
		}
		rk.smp = nil
		return w.pass(rk, c)
	})
	b.setupS = append(b.setupS, float64(now()-t0)/1e9)
	return err
}

// restartCycles is how many times a run writes the field afresh. The
// timed passes are split evenly over the cycles, so the write measurements,
// which restart's write figures and setup_s come from, are spread over the
// whole run instead of bunched before it.
const restartCycles = 8

// timed runs restartCycles cycles, each a set-up (the first is main's)
// followed by read passes until its share of --seconds has run. After the
// last it measures the pool footprint and, in a trace run, tears the store
// down.
func (w *restart) timed() (spaceAmp float64, err error) {
	b := w.b
	for cycle := range restartCycles {
		if cycle > 0 {
			if err := w.setup(); err != nil {
				return 0, err
			}
		}
		budget := int64(b.dur) * int64(cycle+1) / restartCycles
		stop := func(int) bool { return b.measured >= budget }
		if spaceAmp, err = w.passes(stop, cycle == restartCycles-1); err != nil {
			return 0, err
		}
	}
	return spaceAmp, nil
}

// passes runs read passes on the current store until stop; last marks the
// run's final cycle.
func (w *restart) passes(stop func(int) bool, last bool) (spaceAmp float64, err error) {
	b := w.b
	debug.FreeOSMemory()
	_, err = pmemcpy.Run(b.node, nproc, func(c *pmemcpy.Comm) error {
		rk := b.attach(c, sampleTimed)
		if err := b.loop(c, rk, stop, "restart.pass", func(int) error { return w.pass(rk, c) }, nil, nil); err != nil {
			return err
		}
		if !last {
			return nil
		}
		rk.smp = nil
		rk.side = sideWrite
		rk.tr = rk.tracer
		p, err := pmemcpy.Mmap(c, b.node, restartPool)
		if err != nil {
			return err
		}
		if rk.id == 0 {
			st, err := p.Stats()
			if err != nil {
				return err
			}
			spaceAmp = float64(st.HeapUsed) / float64(vol(w.cfg.dims)*8)
			if b.trace {
				rk.call(opCompact, 0, func() error { _, err := pmemcpy.Compact(context.Background(), p, restartField); return err })
				for _, id := range []string{restartField, restartField + pmemcpy.DimsSuffix, "step", "time"} {
					rk.call(opDelete, 0, func() error { _, err := p.Delete(id); return err })
				}
			}
		}
		return p.Munmap()
	})
	return spaceAmp, err
}
