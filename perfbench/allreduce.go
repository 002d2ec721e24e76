package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"newmad/internal/core"
	"newmad/internal/mpl"
	"newmad/internal/strategy"
)

const (
	ranks = 8
	// sets is how many seeded input sets each vector size rotates
	// through, so consecutive operations never reduce the same data.
	sets = 4
)

// mesh is ranks engines over a full memdrv mesh, one communicator each.
type mesh struct {
	engs  []*core.Engine
	comms []*mpl.Comm
	// gt is the one gate trace all ranks share when traced: memdrv
	// delivers synchronously, so everything a post sets off runs nested
	// in that post on this goroutine, whichever rank's gate it is on.
	gt *gateTrace
}

func newMesh(t *tracer) (*mesh, error) {
	m := &mesh{engs: make([]*core.Engine, ranks)}
	gates := make([][]*core.Gate, ranks)
	if t != nil {
		m.gt = &gateTrace{}
	}
	for i := range m.engs {
		var s core.Strategy = strategy.NewFIFO(0)
		if t != nil {
			s = t.wrapStrategy(s)
		}
		m.engs[i] = core.New(core.Config{Strategy: s})
		gates[i] = make([]*core.Gate, ranks)
	}
	for i := 0; i < ranks; i++ {
		for j := i + 1; j < ranks; j++ {
			gi := m.engs[i].NewGate(fmt.Sprintf("r%d", j))
			gj := m.engs[j].NewGate(fmt.Sprintf("r%d", i))
			p := memPair(fmt.Sprintf("%d-%d", i, j))
			var a, b core.Driver = p.a, p.b
			if t != nil {
				a, b = t.wrapDriver(p.name, m.gt, p.a), t.wrapDriver(p.name, m.gt, p.b)
			}
			attach(gi, a)
			attach(gj, b)
			gates[i][j], gates[j][i] = gi, gj
		}
	}
	for i := range m.engs {
		c, err := mpl.New(m.engs[i], i, gates[i], nil)
		if err != nil {
			m.close()
			return nil, err
		}
		m.comms = append(m.comms, c)
	}
	return m, nil
}

func (m *mesh) close() {
	for _, e := range m.engs {
		e.Close()
	}
}

// stats sums the packets and payload bytes every rank's rails sent.
func (m *mesh) stats() (pkts, bytes uint64) {
	for _, e := range m.engs {
		for _, g := range e.Gates() {
			for _, r := range g.Rails() {
				p, b := r.Stats()
				pkts, bytes = pkts+p, bytes+b
			}
		}
	}
	return pkts, bytes
}

// vectors is one seeded input set: each rank's int64 vector and their
// elementwise sum, computed sequentially as the reference.
type vectors struct {
	send [][]byte
	want []byte
}

func newVectors(g *rng, n int) vectors {
	v := vectors{send: make([][]byte, ranks), want: make([]byte, n)}
	for r := range v.send {
		v.send[r] = make([]byte, n)
		for i := 0; i < n; i += 8 {
			// Small values: the sum of eight never overflows.
			binary.LittleEndian.PutUint64(v.send[r][i:], g.next()>>8)
		}
	}
	for i := 0; i < n; i += 8 {
		var s uint64
		for r := range v.send {
			s += binary.LittleEndian.Uint64(v.send[r][i:])
		}
		binary.LittleEndian.PutUint64(v.want[i:], s)
	}
	return v
}

// allreduce posts IAllreduce on every rank from this goroutine (memdrv
// delivers synchronously, so nothing needs pumping) and waits for all.
// It returns the makespan, first post to last completion, and whether
// every rank holds the reference sum. r, when non-nil, accounts the
// operation's CPU and traces its posts.
func (m *mesh) allreduce(r *run, v vectors, recv [][]byte, colls []*mpl.Coll) (time.Duration, bool, error) {
	var t *tracer
	if r != nil {
		t = r.t
		r.startTimed()
	}
	t0 := time.Now()
	for r, c := range m.comms {
		if t == nil {
			colls[r] = c.IAllreduce(v.send[r], recv[r], mpl.OpSumInt64())
			continue
		}
		c0 := m.gt.child.Load()
		p0 := now()
		colls[r] = c.IAllreduce(v.send[r], recv[r], mpl.OpSumInt64())
		d := now() - p0
		t.mplPost.add(float64(d))
		t.post.add(float64(selfTime(d, c0, m.gt)))
	}
	for _, co := range colls {
		if err := co.Wait(); err != nil {
			return 0, false, err
		}
	}
	span := time.Since(t0)
	if r != nil {
		r.stopTimed()
	}
	ok := true
	for _, b := range recv {
		ok = ok && bytes.Equal(b, v.want)
	}
	return span, ok, nil
}

// runAllreduce is the allreduce workload: 8 ranks, alternating 1 KiB
// (tree regime) and 256 KiB (ring-pipeline regime) int64 sums.
func runAllreduce(r *run) error {
	var m *mesh
	small := newVectors(newRNG(r.seed, 10), 1<<10)
	err := r.setup(func() (func(), error) {
		var err error
		if m, err = newMesh(r.t); err != nil {
			return nil, err
		}
		built := m
		recv := make([][]byte, ranks)
		for i := range recv {
			recv[i] = make([]byte, 1<<10)
		}
		if _, ok, err := built.allreduce(nil, small, recv, make([]*mpl.Coll, ranks)); err != nil || !ok {
			built.close()
			return nil, fmt.Errorf("first allreduce: ok=%v err=%v", ok, err)
		}
		return built.close, nil
	})
	if err != nil {
		return err
	}
	sizes := []int{1 << 10, 256 << 10}
	var in [2][sets]vectors
	recv := make([][][]byte, len(sizes))
	for s, n := range sizes {
		for k := range in[s] {
			in[s][k] = newVectors(newRNG(r.seed, uint64(20+s*sets+k)), n)
		}
		recv[s] = make([][]byte, ranks)
		for i := range recv[s] {
			recv[s][i] = make([]byte, n)
		}
	}
	var spans [2]recorder
	// goodput is taken per window of about a second, as vector bytes
	// reduced ÷ makespan, and reported as the median over the windows.
	var goodput []float64
	var winBytes int64
	var winSpan time.Duration
	w0 := time.Now()
	pkts0, bytes0 := m.stats()
	colls := make([]*mpl.Coll, ranks)
	deadline := time.Now().Add(r.dur)
	err = r.countAllocs(func() error {
		for i := 0; time.Now().Before(deadline) || i%2 == 1; i++ {
			s := i % 2
			for _, b := range recv[s] {
				clear(b)
			}
			span, ok, err := m.allreduce(r, in[s][(i/2)%sets], recv[s], colls)
			if err != nil {
				return fmt.Errorf("allreduce %d B: %w", sizes[s], err)
			}
			r.op(ok)
			spans[s].add(float64(span) / 1e3)
			winBytes += int64(sizes[s])
			winSpan += span
			if s == 1 && time.Since(w0) >= time.Second {
				goodput = append(goodput, float64(winBytes)/winSpan.Seconds()/1e6)
				winBytes, winSpan, w0 = 0, 0, time.Now()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(goodput) == 0 || winSpan > 0 && time.Since(w0) >= 500*time.Millisecond {
		goodput = append(goodput, float64(winBytes)/winSpan.Seconds()/1e6)
	}
	// As on pingpong, the shared latency is the geometric mean of the
	// two sizes' medians, and goodput follows the larger size.
	r.metric("latency_us", "us", geomean([]float64{spans[0].quantile(0.5), spans[1].quantile(0.5)}))
	r.metric("goodput_MBps", "MB/s", median(goodput))
	r.metric("allreduce_1K_us", "us", spans[0].quantile(0.5))
	r.tail("allreduce_1K_p99_us", &spans[0])
	r.metric("allreduce_256K_us", "us", spans[1].quantile(0.5))
	pkts, bytes := m.stats()
	r.layer("mpl.pkts_per_coll", "count", float64(pkts-pkts0)/float64(r.ops))
	r.transmitted(pkts-pkts0, bytes-bytes0)
	return nil
}
