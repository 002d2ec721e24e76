package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"newmad/internal/core"
	"newmad/internal/strategy"
)

const tagFlow = 3

// plan is a seeded message sequence: message i is pool[off:off+size] of
// entry i mod len(size), so both ends can rebuild and verify it.
type plan struct {
	pool      []byte
	size, off []int
}

func newPlan(g *rng, entries, minSize, maxSize int) *plan {
	p := &plan{pool: make([]byte, maxSize+64<<10), size: make([]int, entries), off: make([]int, entries)}
	g.fill(p.pool)
	for i := range p.size {
		p.size[i] = minSize + g.intn(maxSize-minSize+1)
		p.off[i] = g.intn(len(p.pool) - p.size[i] + 1)
	}
	return p
}

func (p *plan) msg(i int) []byte {
	k := i % len(p.size)
	return p.pool[p.off[k] : p.off[k]+p.size[k]]
}

// fin is the one-byte message that ends a flow; plans never make
// messages that short.
var fin = []byte{0xf1}

// flowWindow is what a flow delivered and verified in one window.
type flowWindow struct {
	msgs, bytes int64
	dur         time.Duration
	latP50      float64 // us
	latP99      float64 // us
}

// flowStats is what a flow delivered and verified, in total and per
// window of flowWindowDur.
type flowStats struct {
	msgs, bytes int64
	windows     []flowWindow
}

// flowWindowDur is the window the flow metrics are taken over; each
// metric is the median over the run's windows, so a few seconds of host
// interference move it less than they would move one figure pooled over
// the whole run.
const flowWindowDur = 2 * time.Second

// medianOver returns the median of f over the windows.
func (st flowStats) medianOver(f func(flowWindow) float64) float64 {
	v := make([]float64, len(st.windows))
	for i, w := range st.windows {
		v[i] = f(w)
	}
	return median(v)
}

// flow streams plan messages from d.a to d.b for dur, or until limit
// messages when limit > 0. The loop is closed: at most window messages
// are sent and not yet received, and a keeps at most window send
// requests outstanding. The receiver, on its own goroutine, keeps window
// receives posted and verifies every message. Each flowWindow records
// the latency of its messages from their Isend call to their receive
// completing.
func flow(r *run, d *duo, p *plan, window int, dur time.Duration, limit int) (flowStats, error) {
	maxSize := 0
	for _, s := range p.size {
		maxSize = max(maxSize, s)
	}
	credits := make(chan struct{}, window) // one token per message in flight
	for i := 0; i < window; i++ {
		credits <- struct{}{}
	}
	sentAt := make([]atomic.Int64, 4*window) // sent - received <= window
	dead := make(chan struct{})
	var st flowStats
	recvErr := make(chan error, 1)

	go func() {
		var cur flowWindow
		var lat recorder
		w0 := time.Now()
		defer close(dead)
		recvErr <- func() error {
			bufs := make([][]byte, window)
			ring := make([]*core.RecvReq, window)
			for k := range ring {
				bufs[k] = make([]byte, maxSize)
				ring[k] = d.b.irecv(tagFlow, bufs[k])
			}
			defer func() {
				for _, rr := range ring {
					if rr != nil {
						rr.Cancel(nil)
						d.b.wait(rr) // completes with ErrCanceled
					}
				}
			}()
			for i := 0; ; i++ {
				k := i % window
				rr := ring[k]
				if _, err := d.b.wait(rr); err != nil {
					ring[k] = nil
					return err
				}
				n := rr.Len()
				rr.Recycle()
				ring[k] = nil
				if n == len(fin) {
					// A short last window would be noisier than the
					// others; it counts only when it is the only one.
					if t := time.Since(w0); cur.msgs > 0 && (len(st.windows) == 0 || t >= flowWindowDur/2) {
						cur.dur, cur.latP50, cur.latP99 = t, lat.quantile(0.5), lat.quantile(0.99)
						st.windows = append(st.windows, cur)
					}
					return nil
				}
				lat.add(float64(now()-sentAt[i%len(sentAt)].Load()) / 1e3)
				r.op(bytes.Equal(bufs[k][:n], p.msg(i)))
				st.msgs++
				st.bytes += int64(n)
				cur.msgs++
				cur.bytes += int64(n)
				if t := time.Now(); t.Sub(w0) >= flowWindowDur {
					cur.dur, cur.latP50, cur.latP99 = t.Sub(w0), lat.quantile(0.5), lat.quantile(0.99)
					st.windows = append(st.windows, cur)
					cur, lat, w0 = flowWindow{}, recorder{}, t
				}
				ring[k] = d.b.irecv(tagFlow, bufs[k])
				credits <- struct{}{}
			}
		}()
	}()

	var sends []*core.SendReq
	reap := func() error {
		req := sends[0]
		sends = sends[1:]
		_, err := d.a.wait(req)
		req.Recycle()
		return err
	}
	errStopped := errors.New("receiver stopped")
	// acquire takes a credit, reaping completed sends while none is free;
	// with no send left to reap it blocks until the receiver frees one.
	acquire := func() error {
		for {
			select {
			case <-credits:
				return nil
			case <-dead:
				return errStopped
			default:
			}
			if len(sends) == 0 {
				select {
				case <-credits:
					return nil
				case <-dead:
					return errStopped
				}
			}
			if err := reap(); err != nil {
				return err
			}
		}
	}
	deadline := time.Now().Add(dur)
	err := func() error {
		for i := 0; (limit == 0 || i < limit) && time.Now().Before(deadline); i++ {
			if err := acquire(); err != nil {
				return err
			}
			for len(sends) >= window {
				if err := reap(); err != nil {
					return err
				}
			}
			sentAt[i%len(sentAt)].Store(now())
			sends = append(sends, d.a.isend(tagFlow, p.msg(i)))
		}
		sends = append(sends, d.a.isend(tagFlow, fin))
		for len(sends) > 0 {
			if err := reap(); err != nil {
				return err
			}
		}
		return nil
	}()
	if err != nil {
		d.close() // unblocks the receiver
		<-recvErr
		return st, err
	}
	if err := <-recvErr; err != nil {
		return st, err
	}
	if st.msgs == 0 {
		return st, errors.New("flow delivered nothing")
	}
	return st, nil
}

func timedFlow(r *run, d *duo, p *plan, window int) (st flowStats, err error) {
	err = r.countAllocs(func() error {
		r.startTimed()
		st, err = flow(r, d, p, window, r.dur, 0)
		r.stopTimed()
		return err
	})
	return st, err
}

// flowSetup builds a duo over the rails mk returns, with the split
// strategy, through a first round trip.
func flowSetup(r *run, mk func() ([]railPair, error)) (*duo, error) {
	var d *duo
	err := r.setup(func() (func(), error) {
		pairs, err := mk()
		if err != nil {
			return nil, err
		}
		d = newDuo(r.t, func() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) }, pairs)
		built := d
		if err := firstRoundTrip(r, built); err != nil {
			built.close()
			return nil, err
		}
		return built.close, nil
	})
	return d, err
}

func tcpRails() ([]railPair, error) {
	a, err := tcpPair("tcp0")
	if err != nil {
		return nil, err
	}
	b, err := tcpPair("tcp1")
	if err != nil {
		closePairs([]railPair{a})
		return nil, err
	}
	return []railPair{a, b}, nil
}

func tcpShmRails() ([]railPair, error) {
	a, err := tcpPair("tcp")
	if err != nil {
		return nil, err
	}
	b, err := shmPair("shm")
	if err != nil {
		closePairs([]railPair{a})
		return nil, err
	}
	return []railPair{a, b}, nil
}

// msgWindow is the msgrate workload's number of messages in flight.
const msgWindow = 64

// msgratePlan is the msgrate message mix: seeded sizes from 16 B to 1 KiB.
func msgratePlan(seed int64) *plan { return newPlan(newRNG(seed, 1), 4096, 16, 1<<10) }

// runMsgrate is the msgrate workload: 64 small messages in flight, one
// direction, over two tcp rails with the split strategy.
func runMsgrate(r *run) error {
	d, err := flowSetup(r, tcpRails)
	if err != nil {
		return err
	}
	st, err := timedFlow(r, d, msgratePlan(r.seed), msgWindow)
	if err != nil {
		return fmt.Errorf("msgrate: %w", err)
	}
	st.report(r)
	r.metric("msg_rate_kps", "k/s", st.medianOver(func(w flowWindow) float64 { return float64(w.msgs) / w.dur.Seconds() / 1e3 }))
	r.metric("msg_lat_p99_us", "us", st.medianOver(func(w flowWindow) float64 { return w.latP99 }))
	r.transmitted(r.railCounters(d, st.msgs))
	return nil
}

// report records a flow's shared end-to-end metrics: the median over
// windows of each window's median message latency and of its goodput.
func (st flowStats) report(r *run) {
	r.metric("latency_us", "us", st.medianOver(func(w flowWindow) float64 { return w.latP50 }))
	r.metric("goodput_MBps", "MB/s", st.medianOver(func(w flowWindow) float64 { return float64(w.bytes) / w.dur.Seconds() / 1e6 }))
}

// runStream is the stream workload: four 1 MiB bodies in flight, one
// direction, over a tcp + shm gate with the split strategy. It is not
// in BENCHMARK.json: its goodput is bistable from run to run (see
// README.md).
func runStream(r *run) error {
	if r.t != nil {
		r.t.shares = true
	}
	d, err := flowSetup(r, tcpShmRails)
	if err != nil {
		return err
	}
	p := newPlan(newRNG(r.seed, 2), 64, 1<<20, 1<<20)
	st, err := timedFlow(r, d, p, 4)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	st.report(r)
	r.transmitted(r.railCounters(d, st.msgs))
	return nil
}
