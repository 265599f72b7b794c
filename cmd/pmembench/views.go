package main

import (
	"fmt"
	"strings"
	"time"

	"pmemcpy/internal/core"
	"pmemcpy/internal/harness"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// viewsSpeedupTarget is the E18 gate: for single-block reads of at least
// viewsGateSize under the identity codec, opening a zero-copy view must be at
// least this much faster than the copying load. The view path exists to
// eliminate the read-bandwidth charge entirely — a leased view moves metadata,
// not bytes — so if aliasing a stored block cannot buy 1.5x over streaming it
// through memcpy, the lease bookkeeping has eaten the point of the layer.
const (
	viewsSpeedupTarget = 1.5
	viewsGateSize      = int64(1 << 20)
)

// viewsCell is one (variant, size) measurement of the E18 sweep.
type viewsCell struct {
	copyT    time.Duration
	viewT    time.Duration
	zeroCopy int64
	fallback int64
}

// runViewsCase stores one size-byte block per rank (identity or bp4 codec)
// and times reps full reads of it through the copying path and through
// LoadBlockView (open, touch, close), virtual time, max over ranks.
func runViewsCase(cfg sim.Config, ranks int, codec string, size int64, reps int) (viewsCell, error) {
	devSize := int64(ranks)*size*3 + (64 << 20)
	n := node.New(cfg, devSize)
	n.Machine.SetConcurrency(ranks)
	var cell viewsCell
	_, err := mpi.Run(n.Machine, ranks, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/e18.pool", core.WithCodec(codec))
		if err != nil {
			return err
		}
		id := fmt.Sprintf("rank%d", c.Rank())
		if err := p.Alloc(id, serial.Uint8, []uint64{uint64(size)}); err != nil {
			return err
		}
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = byte(c.Rank() + i)
		}
		if err := p.StoreBlock(id, []uint64{0}, []uint64{uint64(size)}, buf); err != nil {
			return err
		}

		dst := make([]byte, size)
		t0 := c.Clock().Now()
		for r := 0; r < reps; r++ {
			if err := p.LoadBlock(id, []uint64{0}, []uint64{uint64(size)}, dst); err != nil {
				return err
			}
		}
		copyT := c.Clock().Now() - t0
		if dst[0] != buf[0] || dst[size-1] != buf[size-1] {
			return fmt.Errorf("copy read-back mismatch")
		}

		t1 := c.Clock().Now()
		for r := 0; r < reps; r++ {
			v, err := p.LoadBlockView(id, []uint64{0}, []uint64{uint64(size)})
			if err != nil {
				return err
			}
			raw, err := v.Bytes()
			if err != nil {
				return err
			}
			// Touch both ends: the view is usable data, not just a handle.
			if raw[0] != buf[0] || raw[size-1] != buf[size-1] {
				return fmt.Errorf("view read-back mismatch")
			}
			if err := v.Close(); err != nil {
				return err
			}
		}
		viewT := c.Clock().Now() - t1

		cmx, err := c.AllreduceU64(uint64(copyT), mpi.OpMax)
		if err != nil {
			return err
		}
		vmx, err := c.AllreduceU64(uint64(viewT), mpi.OpMax)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			cell.copyT = time.Duration(cmx) / time.Duration(reps)
			cell.viewT = time.Duration(vmx) / time.Duration(reps)
			snap := p.Metrics()
			cell.zeroCopy = snap.Get("pmemcpy_view_zero_copy_total")
			cell.fallback = snap.Get("pmemcpy_view_fallback_total")
		}
		return p.Munmap()
	})
	return cell, err
}

// runViewsAblation is E18: the zero-copy read view experiment. The copying
// load streams every byte through the device's read ports, so its virtual
// time grows with the transfer; a leased view charges one read-latency hop to
// plan and pin the block and never moves the bytes. The sweep holds the
// workload to the view layer's fast path — one stored block, identity codec —
// and varies only the transfer size; the bp4 rows drive the same requests
// through the transparent fallback, where the view must cost what the copy
// costs (plus nothing) and the counters must attribute every open to the
// fallback path.
func runViewsAblation(rankCounts []int, base harness.Params) ([]harness.Result, error) {
	const reps = 4
	ranks := rankCounts[0]
	sizes := []int64{4 << 10, 64 << 10, 1 << 20, 16 << 20, 64 << 20}

	var all []harness.Result
	fmt.Printf("E18 — ZERO-COPY LEASED READ VIEWS (virtual time per read, %d ranks, %d reps):\n", ranks, reps)
	fmt.Printf("%-8s %14s %14s %13s %18s\n", "SIZE", "COPY (µs)", "VIEW (µs)", "SPEEDUP", "ZERO-COPY/FALLBK")
	fmt.Println(strings.Repeat("-", 71))
	var gateErr error
	for _, size := range sizes {
		cell, err := runViewsCase(base.Config, ranks, "raw", size, reps)
		if err != nil {
			return all, fmt.Errorf("views ablation size=%d: %w", size, err)
		}
		speedup := float64(cell.copyT) / float64(cell.viewT)
		fmt.Printf("%-8s %14.3f %14.3f %12.2fx %12d/%d\n",
			sizeLabel(size), micros(cell.copyT), micros(cell.viewT), speedup,
			cell.zeroCopy, cell.fallback)
		if cell.fallback != 0 || cell.zeroCopy == 0 {
			return all, fmt.Errorf("views ablation size=%d: identity-codec single-block reads took the fallback path (%d zero-copy, %d fallback)",
				size, cell.zeroCopy, cell.fallback)
		}
		if size >= viewsGateSize && speedup < viewsSpeedupTarget && gateErr == nil {
			gateErr = fmt.Errorf("views ablation: %s view speedup %.2fx below the %.1fx target",
				sizeLabel(size), speedup, viewsSpeedupTarget)
		}
		for _, row := range []struct {
			variant string
			d       time.Duration
		}{{"copy", cell.copyT}, {"view", cell.viewT}} {
			all = append(all, harness.Result{
				Library: fmt.Sprintf("%s/%s", row.variant, sizeLabel(size)),
				Ranks:   ranks,
				Bytes:   int64(ranks) * size,
				Read:    row.d,
			})
		}
	}

	// Fallback parity: the same sweep point under bp4, where nothing may
	// alias. The view must not be slower than the copy beyond planning noise,
	// and every open must count as a fallback.
	cell, err := runViewsCase(base.Config, ranks, "bp4", viewsGateSize, reps)
	if err != nil {
		return all, fmt.Errorf("views ablation bp4 fallback: %w", err)
	}
	ratio := float64(cell.viewT) / float64(cell.copyT)
	fmt.Printf("\nfallback parity (bp4, %s): copy %.3fµs, view %.3fµs (%.2fx), %d/%d zero-copy/fallback\n",
		sizeLabel(viewsGateSize), micros(cell.copyT), micros(cell.viewT), ratio,
		cell.zeroCopy, cell.fallback)
	if cell.zeroCopy != 0 || cell.fallback == 0 {
		return all, fmt.Errorf("views ablation: bp4 reads reported %d zero-copy opens, want pure fallback", cell.zeroCopy)
	}
	if ratio > 1.05 {
		return all, fmt.Errorf("views ablation: bp4 fallback view costs %.2fx the copying load, want parity", ratio)
	}
	all = append(all, harness.Result{
		Library: "view-bp4/" + sizeLabel(viewsGateSize),
		Ranks:   ranks,
		Bytes:   int64(ranks) * viewsGateSize,
		Read:    cell.viewT,
	})
	if gateErr != nil {
		return all, gateErr
	}
	fmt.Printf("verdict: zero-copy gate passed (>= %.1fx on single-block reads >= %s)\n\n",
		viewsSpeedupTarget, sizeLabel(viewsGateSize))
	return all, nil
}

// micros renders a virtual duration in microseconds: a view open costs one
// device read latency, far below what a seconds column can show.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sizeLabel(size int64) string {
	if size >= 1<<20 {
		return fmt.Sprintf("%dM", size>>20)
	}
	return fmt.Sprintf("%dK", size>>10)
}
