package main

import (
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"sentinel/internal/core"
)

// rng is the seeded generator every input comes from.
type rng struct{ *rand.Rand }

func newRNG(seed int64) *rng { return &rng{rand.New(rand.NewSource(seed))} }

func (r *rng) intn(n int64) int64 { return r.Int63n(n) }

// probe is a point-in-time reading of everything the benchmark can see from
// outside the program: the database's counters, the Go runtime's, the
// process's CPU time and the counting filesystem. Metrics over a window are
// differences of two probes.
type probe struct {
	at  time.Time
	st  core.Snapshot
	ms  runtime.MemStats
	cpu time.Duration
	fs  fsCounts
}

func takeProbe(db *core.Database, fs *devFS) probe {
	var p probe
	if db != nil {
		p.st = db.Stats()
	}
	if fs != nil {
		p.fs = fs.counts()
	}
	runtime.ReadMemStats(&p.ms)
	p.cpu = cpuTime()
	p.at = time.Now()
	return p
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// closedLoop runs one phase of a closed-loop load: workers goroutines each
// issue their next operation only after the previous one returned, until
// the phase is over. Latencies (return to return, so the generator's own
// work is inside the figure) are recorded, per slice of the given width,
// when record is set.
// op returns false when the operation failed.
func closedLoop(workers int, d, width time.Duration, rank float64, record bool, op func(w int) bool) (rec *slices, attempted, failed int64) {
	start := time.Now()
	end := start.Add(d)
	per := make([]*slices, workers)
	att := make([]int64, workers)
	bad := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		if record {
			per[w] = newSlices(start, d, width, rank)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var n, failed int64
			prev := time.Now()
			for prev.Before(end) {
				ok := op(w)
				now := time.Now()
				n++
				if !ok {
					failed++
				} else if record {
					if s := per[w].at(now); s != nil {
						s.h.add(now.Sub(prev))
						s.ops++
					}
				}
				prev = now
			}
			att[w], bad[w] = n, failed
		}(w)
	}
	if record {
		// Worker 0's slices carry the CPU samples; merge keeps them.
		per[0].sampleCPU()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		attempted += att[w]
		failed += bad[w]
		if record {
			if rec == nil {
				rec = per[w]
			} else {
				rec.merge(per[w])
			}
		}
	}
	return rec, attempted, failed
}

// runtimeMetrics fills the runtime.* layer from two probes.
func runtimeMetrics(m map[string]float64, a, b probe, ops int64) {
	n := float64(ops)
	m["runtime.allocs_per_op"] = ratio(float64(b.ms.Mallocs-a.ms.Mallocs), n)
	m["runtime.alloc_bytes_per_op"] = ratio(float64(b.ms.TotalAlloc-a.ms.TotalAlloc), n)
	m["runtime.gc_cycles"] = float64(b.ms.NumGC - a.ms.NumGC)
	m["runtime.gc_pause_total_ms"] = float64(b.ms.PauseTotalNs-a.ms.PauseTotalNs) / 1e6
	m["runtime.goroutines"] = float64(runtime.NumGoroutine())
}
