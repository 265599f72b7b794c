package main

import (
	"fmt"
	"io"

	"pmemcpy"
)

// deepRanks and deepElems fix the -deep workload shape; the store contents
// and layout are fully deterministic, so the summary line (and, under
// -corrupt, the damaged offsets) are stable across runs and pinned by golden
// files.
const (
	deepRanks = 2
	deepElems = 64
)

// buildStore populates a deterministic store the way the experiment harness
// does: a few decomposed arrays plus scalar metadata, written by deepRanks
// ranks. The ranks store in turn: concurrent stores would interleave their
// allocations, and the pool offsets the -corrupt report names would follow
// goroutine scheduling.
func buildStore(n *pmemcpy.Node) error {
	_, err := pmemcpy.Run(n, deepRanks, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, n, "/deep.pool")
		if err != nil {
			return err
		}
		for turn := 0; turn < c.Size(); turn++ {
			if turn == c.Rank() {
				if err := storeShare(p, c.Rank()); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return p.Munmap()
	})
	return err
}

// storeShare writes one rank's share of the store: the scalar metadata on
// rank 0, and the rank's block of each array.
func storeShare(p *pmemcpy.PMEM, rank int) error {
	if rank == 0 {
		if err := pmemcpy.Store(p, "sim/timestep", int64(42)); err != nil {
			return err
		}
		if err := pmemcpy.StoreString(p, "sim/label", "deep-check dataset"); err != nil {
			return err
		}
	}
	for v := 0; v < 3; v++ {
		name := fmt.Sprintf("rect%d", v)
		gdim := uint64(deepRanks) * deepElems
		if err := pmemcpy.Alloc[float64](p, name, gdim); err != nil {
			return err
		}
		data := make([]float64, deepElems)
		off := uint64(rank) * deepElems
		for i := range data {
			data[i] = float64(v)*1e6 + float64(off) + float64(i)
		}
		if err := pmemcpy.StoreSub(p, name, data, []uint64{off}, []uint64{deepElems}); err != nil {
			return err
		}
	}
	return nil
}

// runDeep builds the store, optionally injects silent corruption (damaged
// bytes, untouched checksums), and sweeps every published block's CRC32C.
// Exit codes: 0 clean, 2 corruption detected, 3 infrastructure failure.
func runDeep(w io.Writer, corrupt bool) int {
	n := pmemcpy.NewNode(pmemcpy.DefaultConfig(), 64<<20)
	if err := buildStore(n); err != nil {
		fmt.Fprintf(w, "pmemfsck: building store: %v\n", err)
		return 3
	}

	var rep *pmemcpy.DeepReport
	_, err := pmemcpy.Run(n, 1, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, n, "/deep.pool")
		if err != nil {
			return err
		}
		if corrupt {
			// An array block: flip one bit mid-payload. A whole value:
			// invert its first 8 bytes. Neither touches the recorded CRC.
			if _, _, err := p.InjectCorruption("rect1", 0, 100, 1, 0x01); err != nil {
				return fmt.Errorf("injecting: %w", err)
			}
			if _, _, err := p.InjectCorruption("sim/label", -1, 0, 8, 0xff); err != nil {
				return fmt.Errorf("injecting: %w", err)
			}
			fmt.Fprintf(w, "damaged stored bytes of \"rect1\" and \"sim/label\" (checksums untouched)\n")
		}
		rep, err = p.DeepCheck()
		if err != nil {
			return err
		}
		return p.Munmap()
	})
	if err != nil {
		fmt.Fprintf(w, "pmemfsck: %v\n", err)
		return 3
	}

	fmt.Fprintf(w, "%s\n", rep.Summary())
	if !rep.OK() {
		for _, c := range rep.Corrupt {
			fmt.Fprintf(w, "corrupt: %s\n", c)
		}
		return 2
	}
	return 0
}
