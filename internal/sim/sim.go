// Package sim provides the virtual-time performance model that underpins the
// pMEMCPY reproduction: per-rank clocks, shared-resource bandwidth pools, and
// a single Config struct holding every tunable constant of the machine model.
//
// Every data movement in the repository is a real Go copy; sim only accounts
// for how long that movement would have taken on the paper's testbed (a
// 24-core Skylake node with emulated PMEM). Virtual time makes 8-48-rank
// sweeps deterministic and runnable on any host, mirroring the paper's own
// methodology of injecting latency/bandwidth constraints with
// nanosecond-accurate timers.
package sim

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a per-rank virtual clock. Ranks advance their own clock as they
// charge costs for the work they perform; synchronization points (barriers,
// message receipt) align clocks across ranks.
//
// The zero value is a clock at time zero, ready to use. Clock is safe for
// concurrent use: the owning rank advances it while other ranks may read it
// during collective synchronization.
type Clock struct {
	ns atomic.Int64
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration {
	return time.Duration(c.ns.Load())
}

// Advance moves the clock forward by d. Negative durations are ignored so
// cost formulas never move time backwards.
func (c *Clock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.ns.Add(int64(d))
}

// SyncTo moves the clock forward to t if t is later than the current time.
// It is the primitive used by barriers and message receipt.
func (c *Clock) SyncTo(t time.Duration) {
	for {
		cur := c.ns.Load()
		if int64(t) <= cur {
			return
		}
		if c.ns.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// Reset sets the clock back to time zero.
func (c *Clock) Reset() {
	c.ns.Store(0)
}

// Pool models a shared bandwidth resource (PMEM read/write ports, the DRAM
// memory system, the shared-memory interconnect). The effective bandwidth
// seen by one rank is the pool's total divided by the number of concurrently
// active users.
//
// For deterministic bulk-synchronous experiments the harness presets the
// divisor with SetConcurrency; otherwise the live Acquire/Release count is
// used.
type Pool struct {
	name    string
	bps     float64
	perUser float64 // 0 = uncapped
	preset  atomic.Int64
	active  atomic.Int64
}

// NewPool returns a pool named name with total bandwidth bps bytes/second.
func NewPool(name string, bps float64) *Pool {
	if bps <= 0 {
		panic(fmt.Sprintf("sim: pool %q must have positive bandwidth, got %g", name, bps))
	}
	return &Pool{name: name, bps: bps}
}

// NewPoolCapped returns a pool whose per-user share is additionally capped
// at perUser bytes/second, modelling devices whose aggregate bandwidth needs
// several threads to saturate (a single thread cannot stream to PMEM at the
// device's full rate). perUser <= 0 means uncapped.
func NewPoolCapped(name string, bps, perUser float64) *Pool {
	p := NewPool(name, bps)
	if perUser > 0 {
		p.perUser = perUser
	}
	return p
}

// PerUser returns the per-user bandwidth cap (0 = uncapped).
func (p *Pool) PerUser() float64 { return p.perUser }

// Name returns the pool's name.
func (p *Pool) Name() string { return p.name }

// Total returns the pool's total bandwidth in bytes/second.
func (p *Pool) Total() float64 { return p.bps }

// SetConcurrency presets the sharing divisor to n. A value of zero restores
// live Acquire/Release accounting.
func (p *Pool) SetConcurrency(n int) {
	if n < 0 {
		n = 0
	}
	p.preset.Store(int64(n))
}

// Acquire registers the caller as an active user of the pool.
func (p *Pool) Acquire() { p.active.Add(1) }

// Release deregisters the caller.
func (p *Pool) Release() { p.active.Add(-1) }

// Share returns the bandwidth currently available to a single user: the
// pool's total divided by the active user count, further limited by the
// per-user cap when one is set.
func (p *Pool) Share() float64 { return p.GroupShare(1) }

// Cost returns the virtual time needed to move n bytes at the pool's current
// per-user share.
func (p *Pool) Cost(n int64) time.Duration {
	return BytesAt(n, p.Share())
}

// GroupShare returns the bandwidth available to one user driving k concurrent
// streams into the pool. The user's slice of the pool total is unchanged (the
// device is still divided among the same number of users), but the per-stream
// cap scales with k: a single thread cannot saturate PMEM while several
// threads sized to the DIMM count can ("Persistent Memory I/O Primitives",
// van Renen et al.).
func (p *Pool) GroupShare(k int) float64 {
	if k < 1 {
		k = 1
	}
	n := p.preset.Load()
	if n == 0 {
		n = p.active.Load()
	}
	if n < 1 {
		n = 1
	}
	s := p.bps / float64(n)
	if p.perUser > 0 {
		if c := p.perUser * float64(k); c < s {
			return c
		}
	}
	return s
}

// BytesAt converts a byte count moved at bps bytes/second into a duration.
func BytesAt(n int64, bps float64) time.Duration {
	if n <= 0 || bps <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bps * float64(time.Second))
}

// MoveCost models a single-pass data movement of n bytes that is limited both
// by a per-core processing rate (scaled down by the CPU oversubscription
// factor oversub >= 1) and by the shares of every pool the movement crosses.
// The slowest constraint wins: the effective bandwidth is the minimum of the
// per-core rate and all pool shares.
//
// perCoreBPS <= 0 means the movement is not CPU-limited.
func MoveCost(n int64, perCoreBPS, oversub float64, pools ...*Pool) time.Duration {
	return MoveCostParallel(n, perCoreBPS, oversub, 1, pools...)
}

// MoveCostParallel models a data movement of n bytes executed by `workers`
// concurrent streams within one rank. CPU throughput scales with the worker
// count (each worker is a core running the copy loop, discounted by the
// oversubscription factor computed for rank*worker total threads), and each
// pool contributes its GroupShare: the rank's slice of the device, with the
// per-stream cap lifted by the worker count. The slowest constraint wins.
func MoveCostParallel(n int64, perCoreBPS, oversub float64, workers int, pools ...*Pool) time.Duration {
	if n <= 0 {
		return 0
	}
	if workers < 1 {
		workers = 1
	}
	if oversub < 1 {
		oversub = 1
	}
	eff := 0.0
	if perCoreBPS > 0 {
		eff = float64(workers) * perCoreBPS / oversub
	}
	for _, p := range pools {
		s := p.GroupShare(workers)
		if eff == 0 || s < eff {
			eff = s
		}
	}
	return BytesAt(n, eff)
}
