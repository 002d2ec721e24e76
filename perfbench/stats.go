package main

import (
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// reservoirCap bounds the samples one recorder keeps: enough that a p99
// still has thousands of samples beyond it, small enough that a long run
// stays at a few MiB per recorder.
const reservoirCap = 1 << 18

// recorder keeps an exact count plus a uniform sample (Vitter's
// algorithm R, fixed-seed generator) of the values it is given. Safe for
// concurrent use.
type recorder struct {
	mu   sync.Mutex
	n    int64
	keep []float64
	rng  uint64
}

func (r *recorder) add(v float64) {
	r.mu.Lock()
	r.n++
	if len(r.keep) < reservoirCap {
		r.keep = append(r.keep, v)
	} else {
		if r.rng == 0 {
			r.rng = 0x9e3779b97f4a7c15
		}
		r.rng ^= r.rng << 13
		r.rng ^= r.rng >> 7
		r.rng ^= r.rng << 17
		if j := r.rng % uint64(r.n); j < reservoirCap {
			r.keep[j] = v
		}
	}
	r.mu.Unlock()
}

func (r *recorder) count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// quantile returns the q-quantile of the kept sample by linear
// interpolation, or NaN when the recorder is empty.
func (r *recorder) quantile(q float64) float64 {
	r.mu.Lock()
	s := append([]float64(nil), r.keep...)
	r.mu.Unlock()
	return quantile(s, q)
}

func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(s []float64) float64 { return quantile(append([]float64(nil), s...), 0.5) }

// geomean returns the geometric mean of s, whose values are positive.
func geomean(s []float64) float64 {
	sum := 0.0
	for _, v := range s {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(s)))
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rng is a small seeded generator (splitmix64) for workload inputs, so
// the same seed always yields the same payloads and size mixes.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
}

func (g *rng) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (g *rng) intn(n int) int { return int(g.next() % uint64(n)) }

func (g *rng) fill(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := g.next()
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
}
