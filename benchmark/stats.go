package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// hist is a fixed-size log-bucketed latency histogram (7 mantissa bits:
// bucket width is at most 1/128 of the value). Recording never allocates,
// so the recorder does not show up in the live heap or the GC figures it
// sits beside.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const histBuckets = 48 * 128

func histIndex(ns int64) int {
	if ns < 128 {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - 8
	idx := (shift+1)*128 + int((uint64(ns)>>uint(shift))&127)
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histBounds returns a bucket's lower bound and width in nanoseconds.
func histBounds(idx int) (lo, width float64) {
	if idx < 128 {
		return float64(idx), 1
	}
	shift := uint(idx/128 - 1)
	return float64(uint64(128+idx%128) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolated inside the
// bucket that holds it (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, w := histBounds(i)
			return lo + w*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + w
}

// tailQ is the guide's tail rule: the highest percentile, capped at p99,
// that still has at least ten samples beyond it.
func tailQ(n uint64) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

// slices records one measured window as consecutive time slices, each with
// its own histogram, op count and share of the process's CPU time. Every
// figure is computed per slice and one slice's value is reported: the one at
// the given rank, counted from the best side (0 = the best slice, 0.5 = the
// median slice).
//
// The CPU-bound workloads report the best decile (bestDecile). On a shared
// sandbox their noise is one-sided — the host can only slow a slice down,
// and does so for seconds at a time — so the best slices are the ones that
// measure the program, and they repeat run after run where the median slice
// does not (README, "A/A"). The device-bound workloads report the median
// slice (medianSlice): their slices differ because of the program's own
// behaviour (which fsync a commit gets to share makes their latency
// bimodal), and picking the best slice would pick a mode, not a level.
type slices struct {
	start time.Time
	width time.Duration
	rank  float64
	s     []slice
}

const (
	bestDecile  = 0.1
	medianSlice = 0.5
)

type slice struct {
	h   hist
	ops int64
	cpu time.Duration // process CPU time spent during the slice
}

// newSlices cuts window into slices of the given width (at least one).
func newSlices(start time.Time, window, width time.Duration, rank float64) *slices {
	n := int(window / width)
	if n < 1 {
		n = 1
	}
	return &slices{start: start, width: window / time.Duration(n), rank: rank, s: make([]slice, n)}
}

// at returns the slice holding instant t (nil outside the window).
func (sl *slices) at(t time.Time) *slice {
	i := int(t.Sub(sl.start) / sl.width)
	if i < 0 || i >= len(sl.s) {
		return nil
	}
	return &sl.s[i]
}

func (sl *slices) merge(o *slices) {
	for i := range sl.s {
		sl.s[i].h.merge(&o.s[i].h)
		sl.s[i].ops += o.s[i].ops
	}
}

func (sl *slices) total() (h hist, ops int64) {
	for i := range sl.s {
		h.merge(&sl.s[i].h)
		ops += sl.s[i].ops
	}
	return h, ops
}

// sampleCPU fills in each slice's CPU time by reading the process's clock
// at every slice boundary; it returns when the window is over. Run it on its
// own goroutine beside the load.
func (sl *slices) sampleCPU() {
	prev := cpuTime()
	for i := range sl.s {
		time.Sleep(time.Until(sl.start.Add(time.Duration(i+1) * sl.width)))
		now := cpuTime()
		sl.s[i].cpu = now - prev
		prev = now
	}
}

// pick applies f to every slice that recorded samples and returns the value
// at the set's rank from the best side.
func (sl *slices) pick(higher bool, f func(*slice) float64) float64 {
	var vs []float64
	for i := range sl.s {
		if sl.s[i].h.n > 0 {
			vs = append(vs, f(&sl.s[i]))
		}
	}
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	q := sl.rank
	if higher {
		q = 1 - q
	}
	return vs[int(q*float64(len(vs)-1)+0.5)]
}

func (sl *slices) opsPerSec() float64 {
	return sl.pick(true, func(s *slice) float64 { return float64(s.ops) / sl.width.Seconds() })
}

func (sl *slices) p50us() float64 {
	return sl.pick(false, func(s *slice) float64 { return s.h.quantile(0.5) / 1e3 })
}

func (sl *slices) tailus() float64 {
	return sl.pick(false, func(s *slice) float64 { return s.h.quantile(tailQ(s.h.n)) / 1e3 })
}

func (sl *slices) cpuUsPerOp() float64 {
	return sl.pick(false, func(s *slice) float64 { return ratio(float64(s.cpu)/1e3, float64(s.ops)) })
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// durs is a plain sample list for the low-rate timings of the traced pass
// (tracer callbacks, replays), where exact quantiles are affordable.
type durs []time.Duration

func (d durs) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append(durs(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i])
}

func (d durs) p50us() float64  { return d.quantile(0.5) / 1e3 }
func (d durs) tailus() float64 { return d.quantile(tailQ(uint64(len(d)))) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
