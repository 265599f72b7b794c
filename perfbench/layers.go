package main

import (
	"fmt"
	"runtime"

	"pmemcpy/internal/checksum"
	"pmemcpy/internal/nd"
	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// Layer replays, run once after the workload in a trace run. Each replays
// the workload's own inputs through one internal layer's exported functions,
// one span per call, and measures that layer alone: serial and checksum on
// the blocks the workload stored, nd on the intersections its loads
// gathered, pmdk on its metadata keys and block sizes, pmem on its persist
// sizes. They run single-threaded, after the timed phases, so they never
// disturb the workload's own measurements.

// replayIn is what a workload hands the replays.
type replayIn struct {
	blocks    []*serial.Datum // stored blocks, as the store path encodes them
	loads     []ndLoad        // loads, with the stored blocks they gather
	keys      []string        // metadata keys
	allocSize int64           // pool bytes of one stored block
}

// ndLoad is one load request and the stored blocks it intersects, in publish
// order. data materializes a block's bytes outside any timed region.
type ndLoad struct {
	offs, counts []uint64
	blocks       []ndBlock
}

type ndBlock struct {
	offs, counts []uint64
	data         func() []byte
}

// replayRepeats is how many times each replay runs over its inputs; rates
// are medians over the repeats.
const replayRepeats = 5

type layerOut map[string]float64

func replayLayers(t *tracer, in replayIn) (layerOut, error) {
	out := layerOut{}
	if err := replaySerial(t, in, out); err != nil {
		return nil, err
	}
	if err := replayND(t, in, out); err != nil {
		return nil, err
	}
	if err := replayPMDK(t, in, out); err != nil {
		return nil, err
	}
	if err := replayPersist(t, in, out); err != nil {
		return nil, err
	}
	return out, nil
}

// timedCall runs fn inside a span and returns its host ns.
func timedCall(t *tracer, name string, fn func() error) (int64, error) {
	t.begin(name, 0)
	t0 := now()
	err := fn()
	d := now() - t0
	t.end(0, nil)
	return d, err
}

// replaySerial encodes every stored block with BP4 (the default codec, with
// min/max) and with raw (a plain copy), and checksums it with CRC32C, the
// three host passes a store makes over its payload.
func replaySerial(t *tracer, in replayIn, out layerOut) error {
	bp4, err := serial.Get("bp4")
	if err != nil {
		return err
	}
	raw, err := serial.Get("raw")
	if err != nil {
		return err
	}
	var enc, copyRate, crc []float64
	var sink uint32
	size := 0
	for _, d := range in.blocks {
		size = max(size, bp4.EncodedSize(d))
	}
	buf := make([]byte, size) // one warm destination, as the mapped pool is
	for range replayRepeats {
		var n, tEnc, tRaw, tCRC int64
		for _, d := range in.blocks {
			t.begin("replay.serial", 0)
			dt, err := timedCall(t, "serial.EncodeTo.bp4", func() error { _, err := bp4.EncodeTo(buf, d); return err })
			if err != nil {
				return err
			}
			tEnc += dt
			dt, err = timedCall(t, "serial.EncodeTo.raw", func() error { _, err := raw.EncodeTo(buf, d); return err })
			if err != nil {
				return err
			}
			tRaw += dt
			t.end(0, nil)
			t.begin("replay.checksum", 0)
			dt, _ = timedCall(t, "checksum.Sum", func() error { sink += checksum.Sum(d.Payload); return nil })
			t.end(0, nil)
			tCRC += dt
			n += int64(len(d.Payload))
		}
		enc = append(enc, float64(n)/float64(tEnc))
		copyRate = append(copyRate, float64(n)/float64(tRaw))
		crc = append(crc, float64(n)/float64(tCRC))
	}
	_ = sink // the sums only keep the checksum calls from being dropped
	out["serial.encode_gbps"] = median(enc)
	out["serial.raw_copy_gbps"] = median(copyRate)
	out["checksum.sum_gbps"] = median(crc)
	return nil
}

// replayND places every intersection of every sampled load with
// nd.PlaceIntersection, the gather step of a load, and counts the
// contiguous runs each load copies. Like the workload's phases, each repeat
// starts after a collection, so temporary buffers reuse freed memory rather
// than fault in fresh pages.
func replayND(t *tracer, in replayIn, out layerOut) error {
	const esize = 8
	var rates []float64
	var placed, allocated, runs int64
	dsts := make([][]byte, len(in.loads))
	for i, ld := range in.loads {
		dsts[i] = make([]byte, nd.Size(ld.counts)*esize)
	}
	for rep := range replayRepeats {
		runtime.GC()
		var n, dt int64
		for i, ld := range in.loads {
			dst := dsts[i]
			for _, blk := range ld.blocks {
				isOffs, isCnts, ok := nd.Intersect(ld.offs, ld.counts, blk.offs, blk.counts)
				if !ok {
					continue
				}
				src := blk.data()
				if rep == 0 {
					err := nd.Runs(ld.counts, nd.Sub(isOffs, ld.offs), isCnts, esize, func(_, _, _ int64) error {
						runs++
						return nil
					})
					if err != nil {
						return err
					}
				}
				a0 := heapAllocBytes()
				t.begin("replay.nd", 0)
				d, err := timedCall(t, "nd.PlaceIntersection", func() error {
					return nd.PlaceIntersection(dst, ld.offs, ld.counts, src, blk.offs, blk.counts, isOffs, isCnts, esize)
				})
				t.end(0, nil)
				if err != nil {
					return err
				}
				allocated += int64(heapAllocBytes() - a0)
				b := int64(nd.Size(isCnts)) * esize
				n += b
				placed += b
				dt += d
			}
		}
		rates = append(rates, float64(n)/float64(dt))
	}
	if len(in.loads) == 0 || placed == 0 {
		return fmt.Errorf("nd replay: no loads sampled")
	}
	out["nd.place_gbps"] = median(rates)
	out["nd.place_alloc_b_per_b"] = float64(allocated) / float64(placed)
	out["nd.runs_per_load"] = float64(runs) / float64(len(in.loads))
	return nil
}

// replayPool builds a standalone pmdk pool on its own device, configured as
// the library configures its pools.
func replayPool(size int64) (*pmdk.Pool, *sim.Clock, error) {
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(1)
	mp, err := pmem.NewMapping(pmem.New(m, size), 0, size, false)
	if err != nil {
		return nil, nil, err
	}
	clk := new(sim.Clock)
	p, err := pmdk.Create(clk, mp, nil)
	return p, clk, err
}

// pmdkCalls is the minimum number of calls each pmdk replay times.
const pmdkCalls = 2000

// replayPMDK times the metadata building blocks of every store with the
// workload's keys and block size: a one-field transaction, an alloc+free of
// one stored block, and hashtable puts and gets.
func replayPMDK(t *tracer, in replayIn, out layerOut) error {
	p, clk, err := replayPool(max(256<<20, 8*in.allocSize))
	if err != nil {
		return err
	}
	tx, err := p.Begin(clk)
	if err != nil {
		return err
	}
	htID, err := pmdk.CreateHashtable(tx, pmdk.DefaultBuckets)
	if err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	ht, err := pmdk.OpenHashtable(clk, p, htID)
	if err != nil {
		return err
	}
	root, _ := p.Root()
	value := make([]byte, 64) // the size of a one-block list record
	var commit, allocFree, put, get []float64
	t.begin("replay.pmdk", 0)
	defer t.end(0, nil)
	for i := 0; len(commit) < pmdkCalls; i++ {
		d, err := timedCall(t, "pmdk.Tx.Commit", func() error {
			tx, err := p.Begin(clk)
			if err != nil {
				return err
			}
			if err := tx.WriteU64(root, uint64(i)); err != nil {
				return err
			}
			return tx.Commit()
		})
		if err != nil {
			return err
		}
		commit = append(commit, float64(d)/1e3)
		d, err = timedCall(t, "pmdk.Pool.AllocFree", func() error {
			tx, err := p.Begin(clk)
			if err != nil {
				return err
			}
			id, err := p.Alloc(tx, in.allocSize)
			if err != nil {
				return err
			}
			if err := p.Free(tx, id); err != nil {
				return err
			}
			return tx.Commit()
		})
		if err != nil {
			return err
		}
		allocFree = append(allocFree, float64(d)/1e3)
	}
	for len(put) < pmdkCalls {
		for _, k := range in.keys {
			key := []byte(k)
			d, err := timedCall(t, "pmdk.Hashtable.Put", func() error { return ht.Put(clk, key, value) })
			if err != nil {
				return err
			}
			put = append(put, float64(d)/1e3)
			d, err = timedCall(t, "pmdk.Hashtable.Get", func() error {
				_, ok, err := ht.Get(clk, key)
				if err == nil && !ok {
					err = fmt.Errorf("pmdk replay: key %q not found after Put", key)
				}
				return err
			})
			if err != nil {
				return err
			}
			get = append(get, float64(d)/1e3)
		}
	}
	out["pmdk.tx_commit_us"] = median(commit)
	out["pmdk.alloc_free_us"] = median(allocFree)
	out["pmdk.ht_put_us"] = median(put)
	out["pmdk.ht_get_us"] = median(get)
	return nil
}

// replayPersist times Device.Persist over one stored block's bytes.
func replayPersist(t *tracer, in replayIn, out layerOut) error {
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(1)
	dev := pmem.New(m, in.allocSize)
	clk := new(sim.Clock)
	var ds []float64
	t.begin("replay.pmem", 0)
	defer t.end(0, nil)
	for range pmdkCalls {
		d, err := timedCall(t, "pmem.Device.Persist", func() error { return dev.Persist(clk, 0, in.allocSize, 0) })
		if err != nil {
			return err
		}
		ds = append(ds, float64(d)/1e3)
	}
	out["pmem.persist_us"] = median(ds)
	return nil
}
