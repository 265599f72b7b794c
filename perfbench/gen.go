package main

import (
	"math/rand/v2"
	"sync"
)

// Input generation. Every input is drawn from a PCG stream keyed by the run's
// seed and a stream id, so one seed names one exact input set and the
// program under test only ever sees the generated values. Arrays are Gaussian
// rather than zeros or a ramp: both of those make the BP4 min/max scan's
// comparisons perfectly predictable and flatter it.

// Stream id bases, one range per input family so no two inputs share a stream.
const (
	streamCheckpoint = 1 << 20
	streamRestart    = 2 << 20
	streamUpdate     = 3 << 20
	streamDurability = 4 << 20
)

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// gaussian fills dst with standard normal values from stream (seed, stream).
func gaussian(seed, stream uint64, dst []float64) {
	r := newRand(seed, stream)
	for i := range dst {
		dst[i] = r.NormFloat64()
	}
}

// gaussianParallel fills each of bufs from its own stream (base+i), two
// buffers at a time. The result does not depend on the split.
func gaussianParallel(seed, base uint64, bufs [][]float64) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2) // the benchmark targets a 2-core host
	for i, b := range bufs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			gaussian(seed, base+uint64(i), b)
			<-sem
		}()
	}
	wg.Wait()
}

// zipfS is the skew exponent of the update workload's key choice. At 1.2
// over a few thousand records, the hottest 1% of records draw about half of
// all operations, so hot records reach the compaction interval and cold ones
// stay at shadow depth 1.
const zipfS = 1.2

// keyPicker draws record indices with a seeded Zipf skew. A seeded
// permutation scatters the hot records over the id space, so hotness is not
// tied to id order.
type keyPicker struct {
	z    *rand.Zipf
	perm []int
}

func newKeyPicker(r *rand.Rand, n int) *keyPicker {
	return &keyPicker{z: rand.NewZipf(r, zipfS, 1, uint64(n-1)), perm: r.Perm(n)}
}

func (k *keyPicker) next() int { return k.perm[k.z.Uint64()] }
