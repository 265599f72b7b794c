package main

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"pmemcpy/internal/bytesview"
)

func TestGeneratorIsSeeded(t *testing.T) {
	gen := func(seed uint64) []byte {
		a, b := make([]float64, 4096), make([]float64, 4096)
		gaussianParallel(seed, streamCheckpoint, [][]float64{a, b})
		return append(bytesview.Bytes(a), bytesview.Bytes(b)...)
	}
	if !bytes.Equal(gen(7), gen(7)) {
		t.Fatal("one seed gave two different inputs")
	}
	if bytes.Equal(gen(7), gen(8)) {
		t.Fatal("two seeds gave the same input")
	}
	// The parallel fill is the per-stream sequential fill.
	seq := make([]float64, 4096)
	gaussian(7, streamCheckpoint+1, seq)
	par := make([]float64, 4096)
	gaussianParallel(7, streamCheckpoint, [][]float64{make([]float64, 1), par})
	if !slices.Equal(seq, par) {
		t.Fatal("parallel generation differs from sequential")
	}
	// Gaussian, not a ramp: the values are not sorted.
	if slices.IsSorted(seq) {
		t.Fatal("generated values are monotone")
	}
}

func TestKeyPickerIsSeededAndSkewed(t *testing.T) {
	draw := func(seed uint64) []int {
		k := newKeyPicker(newRand(seed, streamUpdate), 2048)
		out := make([]int, 20000)
		for i := range out {
			out[i] = k.next()
		}
		return out
	}
	a := draw(3)
	if !slices.Equal(a, draw(3)) {
		t.Fatal("one seed gave two key sequences")
	}
	if slices.Equal(a, draw(4)) {
		t.Fatal("two seeds gave the same key sequence")
	}
	counts := make(map[int]int)
	for _, k := range a {
		counts[k]++
	}
	freq := make([]int, 0, len(counts))
	for _, c := range counts {
		freq = append(freq, c)
	}
	slices.Sort(freq)
	slices.Reverse(freq)
	hot := 0
	for _, c := range freq[:20] { // the hottest 1% of 2048 records
		hot += c
	}
	if share := float64(hot) / float64(len(a)); share < 0.3 {
		t.Fatalf("hottest 1%% of records drew %.2f of the ops, want a skew of at least 0.3", share)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 100, 1000, 12345} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		rand.New(rand.NewPCG(1, uint64(n))).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		v, pct, got, ok := tail(xs)
		if !ok || got != n {
			t.Fatalf("n=%d: ok=%v count=%d", n, ok, got)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", n, beyond, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	if _, _, _, ok := tail(make([]float64, tailBeyond)); ok {
		t.Error("a tail was reported with no 10 samples beyond it")
	}
}

func TestWindowTailKeepsThePercentile(t *testing.T) {
	// Two ranks, each 3 full windows of 100 plus a partial one that is left out.
	var perRank [][]float64
	for r := range 2 {
		xs := make([]float64, 350)
		for i := range xs {
			xs[i] = float64(i%100 + 1000*r)
		}
		perRank = append(perRank, xs)
	}
	v, pct, windows, n, ok := windowTail(perRank, 100)
	if !ok || windows != 6 || n != 600 || pct != 90 {
		t.Fatalf("ok=%v windows=%d n=%d pct=%v, want 6 windows of 100 at p90", ok, windows, n, pct)
	}
	// Window tails are 89 (rank 0) and 1089 (rank 1); the median is between.
	if v != 589 {
		t.Fatalf("median window tail %v, want 589", v)
	}
	// Too few samples for a window: the tail over all samples.
	v, _, windows, _, ok = windowTail([][]float64{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}, 100)
	if !ok || windows != 1 || v != 2 {
		t.Fatalf("fallback: ok=%v windows=%d v=%v, want the tail over all 12 samples (2)", ok, windows, v)
	}
}

func TestFlippedByteIsAFailure(t *testing.T) {
	b := newBench(1, 0, false)
	rk := b.ranks[0]
	want := bytesview.Bytes([]float64{1, 2, 3})
	got := slices.Clone(want)
	if !rk.check(opLoadBlock, got, want) || rk.failed[opLoadBlock] != 0 {
		t.Fatal("equal bytes counted as a failure")
	}
	got[5] ^= 0x10
	if rk.check(opLoadBlock, got, want) || rk.failed[opLoadBlock] != 1 {
		t.Fatal("a flipped byte was not counted as a failure")
	}
	if _, failed := b.totals(); failed != 1 {
		t.Fatalf("totals report %d failures, want 1", failed)
	}
}

// tinyUpdate keeps the workload's shape at a size a unit test can run.
var tinyUpdate = updateConfig{
	records: 32, recLen: 64, attrs: 8, compactEvery: 4, roundOps: 50, epochRounds: 3,
	devSize: 16 << 20, durRecords: 8, durAttrs: 4, durOps: 100, durDevSize: 16 << 20,
}

func runUpdate(t *testing.T, corrupt bool) (attempted, failed int64) {
	t.Helper()
	b := newBench(5, 100*time.Millisecond, false)
	for _, rk := range b.ranks {
		rk.timedSmp = newSamples(0)
	}
	w := newUpdate(b, tinyUpdate)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	if corrupt {
		// What the store returns no longer matches what rank 0 expects, as
		// if one byte of every record had flipped.
		for _, rec := range w.st[0].model {
			bytesview.Bytes(rec)[3] ^= 1
		}
	}
	if _, err := w.timed(); err != nil {
		t.Fatal(err)
	}
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	return b.totals()
}

func TestUpdateRunIsCorrect(t *testing.T) {
	attempted, failed := runUpdate(t, false)
	if attempted == 0 || failed != 0 {
		t.Fatalf("attempted %d, failed %d", attempted, failed)
	}
}

func TestUpdateCountsWrongBytes(t *testing.T) {
	if _, failed := runUpdate(t, true); failed == 0 {
		t.Fatal("loads of records with a flipped byte were not counted as failures")
	}
}

func TestCheckpointAndRestartRunsAreCorrect(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(*bench) workload
	}{
		{"checkpoint", func(b *bench) workload {
			return newCkpt(b, ckptConfig{vars: 3, edge: 8, devSize: 16 << 20})
		}},
		{"restart", func(b *bench) workload {
			w, err := newRestart(b, restartConfig{
				dims: [3]uint64{12, 12, 36}, tile: [3]uint64{6, 6, 12}, box: [3]uint64{4, 12, 18},
				devSize: 16 << 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			return w
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newBench(9, 50*time.Millisecond, false)
			for _, rk := range b.ranks {
				rk.setupSmp, rk.timedSmp = newSamples(0), newSamples(0)
			}
			w := tc.mk(b)
			if err := w.setup(); err != nil {
				t.Fatal(err)
			}
			if _, err := w.timed(); err != nil {
				t.Fatal(err)
			}
			if attempted, failed := b.totals(); attempted == 0 || failed != 0 {
				t.Fatalf("attempted %d, failed %d", attempted, failed)
			}
			if len(b.timed.opsPerS) == 0 {
				t.Fatal("no timed phase closed")
			}
		})
	}
}
