package main

import (
	"fmt"
	"net"

	"newmad/internal/core"
	"newmad/internal/drivers/memdrv"
	"newmad/internal/drivers/shmdrv"
	"newmad/internal/drivers/tcpdrv"
	"newmad/internal/drivers/udpdrv"
	"newmad/internal/relnet"
)

// railPair is one rail's two driver ends, built from the public driver
// constructors so the traced run can decorate them before AddRail.
type railPair struct {
	name string
	a, b core.Driver
}

func closePairs(ps []railPair) {
	for _, p := range ps {
		p.a.Close()
		p.b.Close()
	}
}

// tcpPair connects two tcpdrv ends through the loopback interface. The
// kernel completes the handshake on Dial, so Accept needs no goroutine.
func tcpPair(name string) (railPair, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return railPair{}, err
	}
	defer l.Close()
	cli, err := tcpdrv.Dial(l.Addr().String(), tcpdrv.Options{})
	if err != nil {
		return railPair{}, err
	}
	srv, err := tcpdrv.Accept(l, tcpdrv.Options{})
	if err != nil {
		cli.Close()
		return railPair{}, err
	}
	return railPair{name: name, a: cli, b: srv}, nil
}

func shmPair(name string) (railPair, error) {
	a, b, err := shmdrv.Pair(shmdrv.Options{})
	if err != nil {
		return railPair{}, fmt.Errorf("shm rail: %w", err)
	}
	return railPair{name: name, a: a, b: b}, nil
}

func loopbackUDP() (*net.UDPConn, error) {
	return net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
}

// udpPair builds a udp+relnet rail over two unconnected loopback sockets.
func udpPair(name string) (railPair, error) {
	ca, err := loopbackUDP()
	if err != nil {
		return railPair{}, err
	}
	cb, err := loopbackUDP()
	if err != nil {
		ca.Close()
		return railPair{}, err
	}
	a := udpdrv.New(ca, cb.LocalAddr().(*net.UDPAddr), udpdrv.Options{})
	b := udpdrv.New(cb, ca.LocalAddr().(*net.UDPAddr), udpdrv.Options{})
	return railPair{name: name, a: a, b: b}, nil
}

// relStats sums the reliability counters of every udp+relnet end.
func relStats(ps []railPair) relnet.Stats {
	var s relnet.Stats
	for _, p := range ps {
		for _, d := range []core.Driver{p.a, p.b} {
			if rd, ok := d.(*relnet.Driver); ok {
				st := rd.Stats()
				s.SegsSent += st.SegsSent
				s.Retransmits += st.Retransmits
				s.DupsDropped += st.DupsDropped
				s.AcksSent += st.AcksSent
				s.AcksPiggybacked += st.AcksPiggybacked
			}
		}
	}
	return s
}

// duo is two engines joined by one gate each over the given rails: a
// drives the traffic, b answers or sinks it.
type duo struct {
	a, b   end
	railsA []*core.Rail
	drvA   []*tracedDriver // traced runs only, in rail order
	drvB   []*tracedDriver
	pairs  []railPair
}

func newDuo(t *tracer, strat func() core.Strategy, pairs []railPair) *duo {
	mk := func(peer string) end {
		s := strat()
		if t != nil {
			s = t.wrapStrategy(s)
		}
		e := end{eng: core.New(core.Config{Strategy: s}), t: t}
		e.g = e.eng.NewGate(peer)
		if t != nil {
			e.gt = &gateTrace{}
		}
		return e
	}
	d := &duo{a: mk("b"), b: mk("a"), pairs: pairs}
	for _, p := range pairs {
		if t == nil {
			d.railsA = append(d.railsA, d.a.g.AddRail(p.a))
			d.b.g.AddRail(p.b)
			continue
		}
		ta := t.wrapDriver(p.name, d.a.gt, p.a)
		tb := t.wrapDriver(p.name, d.b.gt, p.b)
		d.railsA = append(d.railsA, attach(d.a.g, ta))
		attach(d.b.g, tb)
		d.drvA = append(d.drvA, ta)
		d.drvB = append(d.drvB, tb)
	}
	return d
}

// close shuts both engines, which closes every driver.
func (d *duo) close() {
	d.a.eng.Close()
	d.b.eng.Close()
}

// memPair builds an in-process memdrv rail.
func memPair(name string) railPair {
	a, b := memdrv.Pair(name, memdrv.DefaultProfile())
	return railPair{name: "mem", a: a, b: b}
}
