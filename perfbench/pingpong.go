package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"newmad/internal/core"
	"newmad/internal/strategy"
)

const (
	tagPing = 1
	tagPong = 2
	// round is one pass over every phase; each phase's engine block
	// takes its weight of it, and the raw block that follows runs as
	// many round trips, so host drift lands on engine and raw alike.
	round = 500 * time.Millisecond
)

// pingPhase is one rail and size of the pingpong workload.
type pingPhase struct {
	rail   string // "tcp", "shm", "udp"
	size   int
	weight float64 // share of the measured time
	p99    bool    // report a p99
}

// The weights give each p99 well over a thousand samples in a 25 s run.
var pingPhases = []pingPhase{
	{"tcp", 64, 0.40, true},
	{"tcp", 64 << 10, 0.12, false},
	{"shm", 64, 0.20, true},
	{"shm", 64 << 10, 0.10, false},
	{"udp", 64, 0.18, false},
}

func (ph pingPhase) label() string {
	if ph.size >= 1<<10 {
		return fmt.Sprintf("%s_%dK", ph.rail, ph.size>>10)
	}
	return fmt.Sprintf("%s_%dB", ph.rail, ph.size)
}

// pingRails builds the three single-rail engine pairs, by rail name.
func pingRails(t *tracer) (map[string]*duo, error) {
	duos := map[string]*duo{}
	for _, mk := range []struct {
		name string
		f    func(string) (railPair, error)
	}{{"tcp", tcpPair}, {"shm", shmPair}, {"udp", udpPair}} {
		p, err := mk.f(mk.name)
		if err != nil {
			for _, d := range duos {
				d.close()
			}
			return nil, err
		}
		duos[mk.name] = newDuo(t, func() core.Strategy { return strategy.NewFIFO(0) }, []railPair{p})
	}
	return duos, nil
}

// pingBuffers holds one phase's seeded message and the landing buffers.
type pingBuffers struct {
	msg, back, echo []byte
	seq             uint64
}

func newPingBuffers(g *rng, size int) *pingBuffers {
	b := &pingBuffers{msg: make([]byte, size), back: make([]byte, size), echo: make([]byte, size)}
	g.fill(b.msg)
	return b
}

// next stamps a fresh sequence number into the message and clears the
// landing buffer, so a stale or partial reply cannot verify.
func (b *pingBuffers) next() {
	b.seq++
	binary.LittleEndian.PutUint64(b.msg, b.seq)
	clear(b.back)
}

// rtSink receives each round trip's duration and whether it verified.
type rtSink func(rtt time.Duration, ok bool)

// engineBlock runs round trips over d until deadline (at least one),
// with the echo on its own goroutine, as two peers would run. deliver,
// when non-nil, receives the traced span from the peer driver's Send to
// the receive completing, for both directions.
func engineBlock(d *duo, b *pingBuffers, deadline time.Time, sink rtSink, deliver *recorder) (int, error) {
	var stop atomic.Bool
	echoErr := make(chan error, 1)
	go func() {
		echoErr <- func() error {
			for {
				rr := d.b.irecv(tagPing, b.echo)
				c, err := d.b.wait(rr)
				if err != nil {
					return err
				}
				if deliver != nil {
					deliver.add(float64(c - d.drvA[0].lastSend.Load()))
				}
				n := rr.Len()
				rr.Recycle()
				last := stop.Load()
				sr := d.b.isend(tagPong, b.echo[:n])
				_, err = d.b.wait(sr)
				sr.Recycle()
				if err != nil {
					return err
				}
				if last {
					return nil
				}
			}
		}()
	}()
	n, err := func() (int, error) {
		for i := 0; ; i++ {
			last := !time.Now().Before(deadline)
			if last {
				stop.Store(true)
			}
			b.next()
			t0 := time.Now()
			rr := d.a.irecv(tagPong, b.back)
			sr := d.a.isend(tagPing, b.msg)
			_, serr := d.a.wait(sr)
			c, rerr := d.a.wait(rr)
			rtt := time.Since(t0)
			if serr != nil {
				return i, serr
			}
			if rerr != nil {
				return i, rerr
			}
			if deliver != nil {
				deliver.add(float64(c - d.drvB[0].lastSend.Load()))
			}
			sink(rtt, rr.Len() == len(b.msg) && bytes.Equal(b.back, b.msg))
			rr.Recycle()
			sr.Recycle()
			if last {
				return i + 1, nil
			}
		}
	}()
	if err != nil {
		d.close() // unblocks the echo
		<-echoErr
		return n, err
	}
	return n, <-echoErr
}

// rawBlock runs exactly n round trips over a raw link.
func rawBlock(l *rawLink, b *pingBuffers, n int, sink rtSink) error {
	if err := l.arm(); err != nil {
		return err
	}
	var stop atomic.Bool
	echoErr := make(chan error, 1)
	go func() {
		echoErr <- func() error {
			for {
				m, err := l.b.recv(b.echo)
				if err != nil {
					return err
				}
				last := stop.Load()
				if err := l.b.send(b.echo[:m]); err != nil {
					return err
				}
				if last {
					return nil
				}
			}
		}()
	}()
	err := func() error {
		for i := 0; i < n; i++ {
			if i == n-1 {
				stop.Store(true)
			}
			b.next()
			t0 := time.Now()
			if err := l.a.send(b.msg); err != nil {
				return err
			}
			m, err := l.a.recv(b.back)
			rtt := time.Since(t0)
			if err != nil {
				return err
			}
			sink(rtt, m == len(b.msg) && bytes.Equal(b.back, b.msg))
		}
		return nil
	}()
	if err != nil {
		l.close()
		<-echoErr
		return err
	}
	return <-echoErr
}

// firstRoundTrip runs one verified 64 B round trip over d, the last
// step of every set-up.
func firstRoundTrip(r *run, d *duo) error {
	ok := false
	b := newPingBuffers(newRNG(r.seed, 0), 64)
	if _, err := engineBlock(d, b, time.Time{}, func(_ time.Duration, v bool) { ok = v }, nil); err != nil {
		return fmt.Errorf("first round trip: %w", err)
	}
	if !ok {
		return errors.New("first round trip: reply does not match the ping")
	}
	return nil
}

func rawLinkFor(rail string) (*rawLink, error) {
	switch rail {
	case "tcp":
		return rawTCP()
	case "shm":
		return rawShm()
	default:
		return rawUDP()
	}
}

// runPingpong is the pingpong workload: closed loop, one message in
// flight, every rail and size in rounds, each engine block followed by a
// raw-transport block of the same size.
func runPingpong(r *run) error {
	var duos map[string]*duo
	err := r.setup(func() (func(), error) {
		var err error
		duos, err = pingRails(r.t)
		if err != nil {
			return nil, err
		}
		built := duos
		closeAll := func() {
			for _, d := range built {
				d.close()
			}
		}
		for _, rail := range []string{"tcp", "shm", "udp"} {
			if err := firstRoundTrip(r, duos[rail]); err != nil {
				closeAll()
				return nil, fmt.Errorf("%s: %w", rail, err)
			}
		}
		return closeAll, nil
	})
	if err != nil {
		return err
	}

	raws := map[string]*rawLink{}
	defer func() {
		for _, l := range raws {
			l.close()
		}
	}()
	for _, rail := range []string{"tcp", "shm", "udp"} {
		l, err := rawLinkFor(rail)
		if err != nil {
			return fmt.Errorf("raw %s: %w", rail, err)
		}
		raws[rail] = l
	}
	type phaseState struct {
		pingPhase
		b         *pingBuffers
		eng, base recorder
		deliver   *recorder
		cpu       time.Duration
	}
	phases := make([]*phaseState, len(pingPhases))
	for i, ph := range pingPhases {
		st := &phaseState{pingPhase: ph, b: newPingBuffers(newRNG(r.seed, uint64(i+1)), ph.size)}
		if r.t != nil && ph.size == 64 {
			st.deliver = &r.t.rail(ph.rail, core.Profile{}).deliver
		}
		phases[i] = st
	}
	// Rounds interleave every phase, so drift in the host over the run
	// spreads over all of them instead of landing on one.
	railOps := map[string]int64{}
	var goodput []float64 // per round: payload bytes ÷ engine block time
	for deadline := time.Now().Add(r.dur); time.Now().Before(deadline); {
		var moved int64
		var busy time.Duration
		for _, st := range phases {
			engSink := func(rtt time.Duration, ok bool) {
				r.op(ok)
				railOps[st.rail]++
				st.eng.add(float64(rtt) / 2e3)
			}
			rawSink := func(rtt time.Duration, ok bool) {
				r.rawOp(ok)
				st.base.add(float64(rtt) / 2e3)
			}
			var n int
			err := r.countAllocs(func() (err error) {
				cpu0 := cpuTime()
				t0 := time.Now()
				n, err = engineBlock(duos[st.rail], st.b, t0.Add(time.Duration(st.weight*float64(round))), engSink, st.deliver)
				busy += time.Since(t0)
				st.cpu += cpuTime() - cpu0
				return err
			})
			if err != nil {
				return fmt.Errorf("%s engine block: %w", st.label(), err)
			}
			moved += 2 * int64(n) * int64(st.size)
			if err := rawBlock(raws[st.rail], st.b, n, rawSink); err != nil {
				return fmt.Errorf("%s raw block: %w", st.label(), err)
			}
		}
		goodput = append(goodput, float64(moved)/busy.Seconds()/1e6)
	}
	// The phases run round trips at rates a hundred times apart, so CPU
	// per round trip pooled over all of them would follow whichever
	// phase happened to complete most; each phase counts once instead.
	var cpuPerOp float64
	for _, st := range phases {
		cpuPerOp += st.cpu.Seconds() * 1e6 / float64(st.eng.count()) / float64(len(phases))
	}
	r.metric("cpu_per_op_us", "us", cpuPerOp)
	// The shared latency is the geometric mean of the phases' medians,
	// so each phase moves it by its own relative change whatever its
	// size; goodput follows the 64 KiB phases, which move most bytes.
	medians := make([]float64, len(phases))
	for i, st := range phases {
		medians[i] = st.eng.quantile(0.5)
	}
	r.metric("latency_us", "us", geomean(medians))
	r.metric("goodput_MBps", "MB/s", median(goodput))
	for _, st := range phases {
		name := st.label() + "_half_rtt_us"
		r.metric(name, "us", st.eng.quantile(0.5))
		if st.p99 {
			r.tail(st.label()+"_half_rtt_p99_us", &st.eng)
		}
		r.layer("raw."+name, "us", st.base.quantile(0.5))
		r.layer("core.overhead."+st.label(), "x", st.eng.quantile(0.5)/st.base.quantile(0.5))
	}
	st := relStats(duos["udp"].pairs)
	r.layer("relnet.retransmits", "count", float64(st.Retransmits))
	r.layer("relnet.acks_per_seg", "ratio", float64(st.AcksSent+st.AcksPiggybacked)/float64(st.SegsSent))
	r.layer("relnet.dups_dropped", "count", float64(st.DupsDropped))
	var pkts, bytes uint64
	for name, d := range duos {
		p, b := r.railCounters(d, railOps[name])
		pkts, bytes = pkts+p, bytes+b
	}
	r.transmitted(pkts, bytes)
	return nil
}
