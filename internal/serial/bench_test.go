package serial

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"pmemcpy/internal/bytesview"
)

// benchDatum builds a 1 MB float64 array datum of seeded pseudo-random
// values, so bp4's min/max comparisons are not trivially predictable.
func benchDatum() *Datum {
	r := rand.New(rand.NewPCG(1, 2))
	vals := make([]float64, 128<<10)
	for i := range vals {
		vals[i] = r.Float64()
	}
	return &Datum{Type: Float64, Dims: []uint64{128 << 10}, Payload: bytesview.Bytes(vals)}
}

// BenchmarkEncode measures real (wall-time) encode throughput per codec —
// this is host performance of the codec implementations themselves, separate
// from the virtual-time model.
func BenchmarkEncode(b *testing.B) {
	d := benchDatum()
	for _, name := range Names() {
		c, err := Get(name)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, c.EncodedSize(d))
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(d.Payload)))
			for i := 0; i < b.N; i++ {
				if _, err := c.EncodeTo(buf, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecode measures header parsing per codec: every codec's Decode
// aliases the payload instead of copying it, so the cost is independent of
// the payload size and no throughput is reported.
func BenchmarkDecode(b *testing.B) {
	d := benchDatum()
	for _, name := range Names() {
		c, err := Get(name)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, c.EncodedSize(d))
		if _, err := c.EncodeTo(buf, d); err != nil {
			b.Fatal(err)
		}
		hint := &Datum{Type: d.Type, Dims: d.Dims}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Decode(buf, hint); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodedSize measures header-size computation (hot on the store
// path: called once per block to size the PMEM allocation).
func BenchmarkEncodedSize(b *testing.B) {
	d := benchDatum()
	for _, name := range Names() {
		c, err := Get(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if c.EncodedSize(d) <= 0 {
					b.Fatal("bad size")
				}
			}
		})
	}
}

// BenchmarkBP4Stats isolates the min/max characterization pass that makes
// BP4 the most expensive encoder.
func BenchmarkBP4Stats(b *testing.B) {
	d := benchDatum()
	b.SetBytes(int64(len(d.Payload)))
	for i := 0; i < b.N; i++ {
		mn, mx := characterize(d)
		if mn > mx {
			b.Fatal("impossible stats")
		}
	}
}

func BenchmarkEncodeSizesSweep(b *testing.B) {
	c := Default()
	for _, kb := range []int{4, 64, 1024} {
		vals := make([]float64, kb<<10/8)
		d := &Datum{Type: Float64, Dims: []uint64{uint64(len(vals))}, Payload: bytesview.Bytes(vals)}
		buf := make([]byte, c.EncodedSize(d))
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			b.SetBytes(int64(len(d.Payload)))
			for i := 0; i < b.N; i++ {
				if _, err := c.EncodeTo(buf, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
