package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pmemcpy/internal/nd"
	"pmemcpy/internal/serial"
)

// Parallel gather engine: the read-side mirror of the sharded write engine in
// parallel.go. A LoadBlock request is decomposed by a planner into copy jobs
// — one per stored block intersecting the request, large jobs split along
// dim 0 — and worker goroutines decode and scatter the jobs into the caller's
// buffer concurrently. "Persistent Memory I/O Primitives" (van Renen et al.)
// measures exactly this: one thread cannot saturate PMEM read bandwidth, a
// handful sized to the DIMM count can.
//
// The same determinism rule as the write engine applies: workers only run the
// codec's Decode and the nd scatter into disjoint destination elements; the
// coordinator does every clock charge after the join, so virtual time does
// not depend on goroutine scheduling.
//
// Correctness with overwrites: stored blocks may overlap, and LoadBlock
// resolves overlap by publish order (later blocks shadow earlier ones). The
// planner therefore only hands a plan to the workers when no two jobs'
// regions intersect — the common HPC case of disjoint per-rank blocks — and
// otherwise the caller falls back to the ordered serial gather, which is
// shadow-correct by construction.

// copyJob is one gather unit: the intersection of the read request with one
// stored block, in absolute array coordinates.
type copyJob struct {
	src            blockRec
	isOffs, isCnts []uint64
	bytes          int64
}

// planGather intersects the request (offs, counts) with the stored blocks,
// walking the start-sorted extent index and emitting jobs in publish order.
// It returns the jobs plus the total intersection bytes (which may exceed
// the request size when stored blocks overlap).
func planGather(e *cacheEntry, offs, counts []uint64, esize int) ([]copyJob, int64) {
	var hits []int
	if len(offs) > 0 {
		lo, hi := offs[0], offs[0]+counts[0]
		for _, bi := range e.byStart {
			b := e.blocks[bi]
			if len(b.offs) == 0 {
				continue
			}
			if b.offs[0] >= hi {
				// Sorted by start: every later block begins at or past the
				// request's end in dim 0 and cannot intersect.
				break
			}
			if b.offs[0]+b.counts[0] <= lo {
				continue
			}
			hits = append(hits, bi)
		}
		// Publish order decides shadowing, so restore it.
		sortInts(hits)
	} else {
		for i := range e.blocks {
			hits = append(hits, i)
		}
	}
	var jobs []copyJob
	var total int64
	for _, bi := range hits {
		b := e.blocks[bi]
		isOffs, isCnts, ok := nd.Intersect(offs, counts, b.offs, b.counts)
		if !ok {
			continue
		}
		n := int64(nd.Size(isCnts)) * int64(esize)
		jobs = append(jobs, copyJob{src: b, isOffs: isOffs, isCnts: isCnts, bytes: n})
		total += n
	}
	return jobs, total
}

func sortInts(v []int) {
	// Insertion sort: hit lists are short and nearly sorted already.
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// jobsOverlap reports whether any two jobs' regions intersect, in which case
// publish order matters and the plan is not safe to execute concurrently.
func jobsOverlap(jobs []copyJob) bool {
	for i := 0; i < len(jobs); i++ {
		for j := i + 1; j < len(jobs); j++ {
			if _, _, ok := nd.Intersect(jobs[i].isOffs, jobs[i].isCnts,
				jobs[j].isOffs, jobs[j].isCnts); ok {
				return true
			}
		}
	}
	return false
}

// splitJobs cuts large jobs along dim 0 of their intersection until the plan
// has at least want jobs, so even a single huge stored block fans out over
// the worker pool. Sub-jobs of one block never overlap, preserving the
// planner's no-overlap guarantee.
func splitJobs(jobs []copyJob, want int) []copyJob {
	for len(jobs) < want {
		// Split the largest splittable job in two.
		best := -1
		for i, j := range jobs {
			if len(j.isCnts) == 0 || j.isCnts[0] < 2 {
				continue
			}
			if best < 0 || j.bytes > jobs[best].bytes {
				best = i
			}
		}
		if best < 0 {
			break
		}
		j := jobs[best]
		rows := j.isCnts[0]
		half := rows / 2
		rowBytes := j.bytes / int64(rows)
		lo, hi := j, j
		lo.isOffs = append([]uint64(nil), j.isOffs...)
		lo.isCnts = append([]uint64(nil), j.isCnts...)
		hi.isOffs = append([]uint64(nil), j.isOffs...)
		hi.isCnts = append([]uint64(nil), j.isCnts...)
		lo.isCnts[0] = half
		lo.bytes = rowBytes * int64(half)
		hi.isOffs[0] += half
		hi.isCnts[0] = rows - half
		hi.bytes = j.bytes - lo.bytes
		jobs[best] = lo
		jobs = append(jobs, hi)
	}
	return jobs
}

// readParallelEligible reports whether a gather of total intersection bytes
// should take the parallel path.
func (p *PMEM) readParallelEligible(total int64) bool {
	return p.st.rpar > 1 &&
		!p.st.staged && // staging ablation models the serial related work
		p.st.layout == LayoutHashtable &&
		total >= parallelMinBytes
}

// gatherJob decodes one job's stored block (zero-copy for the default codec:
// the payload aliases mapped PMEM) and scatters its intersection into dst.
// It is the only code workers run: no clock, no allocator, no device
// bookkeeping.
func (p *PMEM) gatherJob(job copyJob, src, dst []byte, offs, counts []uint64, esize int) error {
	d, err := p.codec.Decode(src, &serial.Datum{Type: job.src.dtype, Dims: job.src.counts})
	if err != nil {
		return err
	}
	return nd.PlaceIntersection(dst, offs, counts, d.Payload, job.src.offs, job.src.counts,
		job.isOffs, job.isCnts, esize)
}

// loadJobsSerial executes the plan in publish order on the caller's
// goroutine — the pre-engine gather, kept as the fallback for overlapping
// plans, small requests, and the staging ablation.
func (p *PMEM) loadJobsSerial(jobs []copyJob, offs, counts []uint64, dst []byte, esize int) error {
	_, decPasses := p.codec.CostProfile()
	for _, job := range jobs {
		src, err := p.poolOf(job.src.pool).Slice(job.src.data, job.src.encLen)
		if err != nil {
			return err
		}
		p.chargeMove(moveLoad, []int64{job.bytes}, []int{int(job.src.pool)}, decPasses, 1)
		if err := p.gatherJob(job, src, dst, offs, counts, esize); err != nil {
			return err
		}
	}
	return nil
}

// loadJobsParallel executes a non-overlapping plan on the worker pool. The
// coordinator pre-slices every source (keeping pool range checks off the
// workers), joins, then charges the analytic parallel read cost once.
func (p *PMEM) loadJobsParallel(jobs []copyJob, offs, counts []uint64, dst []byte, esize int, total int64) error {
	workers := p.st.rpar
	jobs = splitJobs(jobs, workers)
	if len(jobs) < workers {
		workers = len(jobs)
	}
	if in := p.st.ins; in.enabled {
		in.gatherDepth.Observe(int64(len(jobs)))
		for i := range jobs {
			in.gatherJobBytes.Observe(jobs[i].bytes)
		}
	}
	srcs := make([][]byte, len(jobs))
	for i := range jobs {
		src, err := p.poolOf(jobs[i].src.pool).Slice(jobs[i].src.data, jobs[i].src.encLen)
		if err != nil {
			return err
		}
		srcs[i] = src
	}
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				errs[i] = p.gatherJob(jobs[i], srcs[i], dst, offs, counts, esize)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("core: parallel gather job %d: %w", i, err)
		}
	}
	// Striped charge: jobs may gather from several member pools, whose
	// devices stream concurrently — virtual time advances by the slowest
	// pool's stripe.
	_, decPasses := p.codec.CostProfile()
	perPool := make([]int64, 0, 4)
	pis := make([]int, 0, 4)
	for pi := 0; pi < p.st.npools(); pi++ {
		var n int64
		for i := range jobs {
			if int(jobs[i].src.pool) == pi {
				n += jobs[i].bytes
			}
		}
		if n > 0 {
			perPool = append(perPool, n)
			pis = append(pis, pi)
		}
	}
	p.chargeMove(moveLoad, perPool, pis, decPasses, workers)
	p.st.parallelReads.Add(1)
	p.st.parallelReadJobs.Add(int64(len(jobs)))
	return nil
}
