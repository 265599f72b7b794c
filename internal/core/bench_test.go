package core_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/serial"
)

// benchFloats returns n seeded pseudo-random float64s, so bp4's min/max
// branches are not trivially predictable the way all-zero data makes them.
func benchFloats(n uint64) []float64 {
	r := rand.New(rand.NewPCG(1, 2))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.Float64()
	}
	return vals
}

// benchStore measures single-rank StoreBlock wall throughput (real encode +
// copy into the mapped pool).
func BenchmarkStoreBlock(b *testing.B) {
	for _, kb := range []int{64, 1024} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			n := newNode()
			elems := uint64(kb << 10 / 8)
			vals := benchFloats(elems)
			b.SetBytes(int64(kb) << 10)
			_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
				p, err := core.Mmap(c, n, "/bench.pool", nil)
				if err != nil {
					return err
				}
				if err := p.Alloc("v", serial.Float64, []uint64{elems * 16}); err != nil {
					return err
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Recycle the variable periodically so long runs don't
					// exhaust the pool (blocks append on every store).
					if i%16 == 0 && i > 0 {
						b.StopTimer()
						if _, err := p.Delete("v"); err != nil {
							return err
						}
						b.StartTimer()
					}
					off := []uint64{elems * uint64(i%16)}
					if err := p.StoreBlock("v", off, []uint64{elems}, bytesview.Bytes(vals)); err != nil {
						return err
					}
				}
				b.StopTimer()
				return p.Munmap()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkLoadBlock measures the symmetric load path.
func BenchmarkLoadBlock(b *testing.B) {
	n := newNode()
	const elems = 128 << 10 / 8
	vals := benchFloats(elems)
	b.SetBytes(elems * 8)
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/benchr.pool", nil)
		if err != nil {
			return err
		}
		if err := p.Alloc("v", serial.Float64, []uint64{elems}); err != nil {
			return err
		}
		if err := p.StoreBlock("v", []uint64{0}, []uint64{elems}, bytesview.Bytes(vals)); err != nil {
			return err
		}
		dst := make([]byte, elems*8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.LoadBlock("v", []uint64{0}, []uint64{elems}, dst); err != nil {
				return err
			}
		}
		b.StopTimer()
		return p.Munmap()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScalarStoreLoad measures the small-value KV path.
func BenchmarkScalarStoreLoad(b *testing.B) {
	n := newNode()
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/benchs.pool", nil)
		if err != nil {
			return err
		}
		v := []float64{3.14}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := fmt.Sprintf("s%d", i%100)
			d := &serial.Datum{Type: serial.Float64, Payload: bytesview.Bytes(v)}
			if err := p.StoreDatum(id, d); err != nil {
				return err
			}
			if _, err := p.LoadDatum(id); err != nil {
				return err
			}
		}
		b.StopTimer()
		return p.Munmap()
	})
	if err != nil {
		b.Fatal(err)
	}
}
