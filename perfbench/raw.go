package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"newmad/internal/shmring"
)

// The raw baselines are the transports under each rail with no engine
// on top: a bare TCP connection (Nagle off), a bare UDP socket pair and
// a bare shmring segment driven through Dir.Push / TryPop + WaitData,
// the ring shmdrv itself waits on. They share the engine pingpong's
// client/echo loop, so the engine/raw ratio isolates the engine.

// rawEnd is one end of a raw transport: fixed-size messages, in order.
type rawEnd interface {
	send(b []byte) error
	recv(b []byte) (int, error)
}

type rawLink struct {
	a, b  rawEnd
	close func()
	// arm bounds the blocking reads of the coming block, so a lost
	// datagram or a dead peer fails the run instead of hanging it.
	arm func() error
}

// rawTimeout bounds one raw block.
const rawTimeout = 10 * time.Second

func deadlines(conns ...interface{ SetReadDeadline(time.Time) error }) func() error {
	return func() error {
		for _, c := range conns {
			if err := c.SetReadDeadline(time.Now().Add(rawTimeout)); err != nil {
				return err
			}
		}
		return nil
	}
}

type tcpEnd struct{ c net.Conn }

func (e tcpEnd) send(b []byte) error { _, err := e.c.Write(b); return err }

func (e tcpEnd) recv(b []byte) (int, error) { return io.ReadFull(e.c, b) }

func rawTCP() (*rawLink, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	ca, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return nil, err
	}
	cb, err := l.Accept()
	if err != nil {
		ca.Close()
		return nil, err
	}
	for _, c := range []net.Conn{ca, cb} {
		if err := c.(*net.TCPConn).SetNoDelay(true); err != nil {
			ca.Close()
			cb.Close()
			return nil, err
		}
	}
	return &rawLink{a: tcpEnd{ca}, b: tcpEnd{cb}, close: func() { ca.Close(); cb.Close() }, arm: deadlines(ca, cb)}, nil
}

type udpEnd struct {
	c    *net.UDPConn
	peer *net.UDPAddr
}

func (e udpEnd) send(b []byte) error { _, err := e.c.WriteToUDP(b, e.peer); return err }

func (e udpEnd) recv(b []byte) (int, error) {
	n, _, err := e.c.ReadFromUDP(b)
	return n, err
}

func rawUDP() (*rawLink, error) {
	ca, err := loopbackUDP()
	if err != nil {
		return nil, err
	}
	cb, err := loopbackUDP()
	if err != nil {
		ca.Close()
		return nil, err
	}
	a := udpEnd{ca, cb.LocalAddr().(*net.UDPAddr)}
	b := udpEnd{cb, ca.LocalAddr().(*net.UDPAddr)}
	return &rawLink{a: a, b: b, close: func() { ca.Close(); cb.Close() }, arm: deadlines(ca, cb)}, nil
}

type shmEnd struct{ tx, rx *shmring.Dir }

func (e shmEnd) send(b []byte) error { return e.tx.Push(shmring.RecInline, b) }

func (e shmEnd) recv(b []byte) (int, error) {
	n := 0
	for deadline := time.Now().Add(rawTimeout); ; {
		if e.rx.TryPop(func(_ uint32, x, y []byte) { n = copy(b, x); n += copy(b[n:], y) }) {
			return n, nil
		}
		if time.Now().After(deadline) {
			return 0, errors.New("shmring: no record within the block timeout")
		}
		e.rx.WaitData(0)
	}
}

func rawShm() (*rawLink, error) {
	name := shmring.RandomName()
	sa, err := shmring.Create(name, shmring.Config{})
	if err != nil {
		return nil, fmt.Errorf("raw shm: %w", err)
	}
	sb, err := shmring.Open(name, shmring.Config{})
	if err != nil {
		sa.Close()
		return nil, fmt.Errorf("raw shm: %w", err)
	}
	sa.Unlink()
	return &rawLink{
		a:     shmEnd{sa.TX(), sa.RX()},
		b:     shmEnd{sb.TX(), sb.RX()},
		close: func() { sa.Close(); sb.Close() },
		arm:   func() error { return nil },
	}, nil
}
