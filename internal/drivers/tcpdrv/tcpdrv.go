// Package tcpdrv is the transmit-layer driver for real TCP sockets: the
// legacy-sockets driver of the paper's transmit layer, and the way this
// reproduction runs the engine between actual processes. One driver is
// one connection; multi-rail configurations use several connections
// (possibly over different physical interfaces) as heterogeneous rails.
//
// Framing is a 4-byte little-endian length followed by a marshalled
// packet. A writer goroutine drains the send queue in batches: on a real
// TCP connection every queued packet contributes two iovecs (a pooled
// prefix+header staging buffer and the payload itself) to one
// net.Buffers flush — a single writev(2) regardless of how many packets
// were waiting, with zero payload copies. On other connections the batch
// is coalesced into one pooled buffer and issued as a single Write, so a
// frame never costs two syscalls either way. A reader goroutine parses
// frames into arena leases; Poll drains completions and arrivals in one
// batch per call and hands them to the engine with core.DeliverEvents
// (one progress-domain acquisition for the whole batch). This is the
// only pumped driver: its rails join the engine's active poll set
// (NeedsPoll reports true) and waiting goroutines pump them, while
// event-driven drivers are never polled.
package tcpdrv

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"newmad/internal/core"
	"newmad/internal/netx"
)

// ErrClosed reports use of a closed driver.
var ErrClosed = errors.New("tcpdrv: closed")

// maxWriteBatch bounds how many queued packets one writer flush absorbs,
// keeping the iovec count well under the kernel's IOV_MAX.
const maxWriteBatch = 32

// Options configures a TCP rail.
type Options struct {
	// Profile declares the rail characteristics to the engine. Zero
	// values get defaults (see DefaultProfile).
	Profile core.Profile
	// NoDelay disables Nagle (default true semantics: set NoDelayOff to
	// keep Nagle on).
	NoDelayOff bool
}

// DefaultProfile is a conservative loopback-TCP profile.
func DefaultProfile() core.Profile {
	return core.Profile{
		Name:      "tcp",
		Latency:   30 * time.Microsecond,
		Bandwidth: 1200e6,
		EagerMax:  64 << 10,
		PIOMax:    0,
	}
}

// Driver is one TCP rail.
type Driver struct {
	conn net.Conn
	tc   *net.TCPConn  // non-nil when conn supports writev via net.Buffers
	br   *bufio.Reader // reader-goroutine-only; batches length-prefix reads
	prof core.Profile

	rail int
	ev   core.Events

	sendq chan *core.Packet

	mu          sync.Mutex
	completions []completion
	compSpare   []completion // recycled backing array for completions
	inbox       []*core.Packet
	inboxSpare  []*core.Packet // recycled backing array for inbox
	closed      bool
	rerr        error
	rerrSent    bool // reader error already reported via Events.RailDown

	// pollMu serializes Poll: several waiting goroutines may pump the
	// rail concurrently, and per-rail event order must be preserved.
	pollMu sync.Mutex

	wg sync.WaitGroup
}

type completion struct {
	pkt *core.Packet
	err error
}

// New wraps an established connection as a rail.
func New(conn net.Conn, opts Options) *Driver {
	prof := opts.Profile
	def := DefaultProfile()
	if prof.Name == "" {
		prof.Name = def.Name
	}
	if prof.Latency == 0 {
		prof.Latency = def.Latency
	}
	if prof.Bandwidth == 0 {
		prof.Bandwidth = def.Bandwidth
	}
	if prof.EagerMax == 0 {
		prof.EagerMax = def.EagerMax
	}
	tc, _ := conn.(*net.TCPConn)
	if tc != nil && !opts.NoDelayOff {
		_ = tc.SetNoDelay(true)
	}
	d := &Driver{
		conn:  conn,
		tc:    tc,
		br:    bufio.NewReaderSize(conn, 64<<10),
		prof:  prof,
		sendq: make(chan *core.Packet, 64),
	}
	d.wg.Add(2)
	go d.writer()
	go d.reader()
	return d
}

// Dial connects to addr and returns the rail.
func Dial(addr string, opts Options) (*Driver, error) {
	return DialCtx(context.Background(), addr, opts)
}

// DialCtx connects to addr under ctx: cancellation or deadline expiry
// aborts the in-flight dial with ctx's error.
func DialCtx(ctx context.Context, addr string, opts Options) (*Driver, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpdrv: dial %s: %w", addr, err)
	}
	return New(conn, opts), nil
}

// Accept waits for one connection on l and returns the rail.
func Accept(l net.Listener, opts Options) (*Driver, error) {
	return AcceptCtx(context.Background(), l, opts)
}

// AcceptCtx waits for one connection on l under ctx. Cancellation is
// mapped onto a socket deadline poke (netx.AcceptConn): the listener's
// deadline is moved into the past, failing the blocked Accept
// immediately, and ctx's error is returned in place of the resulting
// timeout. The listener's deadline is cleared again before returning so
// l can be reused.
func AcceptCtx(ctx context.Context, l net.Listener, opts Options) (*Driver, error) {
	deadline, _ := ctx.Deadline() // zero: no deadline
	conn, err := netx.AcceptConn(ctx, l, deadline)
	if err != nil {
		return nil, fmt.Errorf("tcpdrv: accept: %w", err)
	}
	return New(conn, opts), nil
}

// Name implements core.Driver.
func (d *Driver) Name() string { return "tcp:" + d.conn.RemoteAddr().String() }

// Profile implements core.Driver.
func (d *Driver) Profile() core.Profile { return d.prof }

// Bind implements core.Driver.
func (d *Driver) Bind(rail int, ev core.Events) {
	d.rail = rail
	d.ev = ev
}

// Send implements core.Driver: enqueues the packet for the writer
// goroutine. The payload is referenced, not copied, until written.
func (d *Driver) Send(p *core.Packet) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	// Finish the header here, on the caller's goroutine: once queued the
	// writer only reads the packet, so the engine may read its header
	// concurrently (a rail failure traces the in-flight packet).
	p.Hdr.PayLen = uint32(len(p.Payload))
	select {
	case d.sendq <- p:
		return nil
	default:
		// The engine posts one packet at a time per rail, so a full
		// queue means the contract was violated or the peer is gone.
		return fmt.Errorf("tcpdrv: send queue full on %s", d.Name())
	}
}

func (d *Driver) writer() {
	defer d.wg.Done()
	var batch []*core.Packet
	var iov net.Buffers
	var frames []*core.Buf
	for p := range d.sendq {
		batch = append(batch[:0], p)
	drain:
		// Opportunistically absorb everything already queued: the flush
		// below carries the whole batch in one syscall.
		for len(batch) < maxWriteBatch {
			select {
			case q, ok := <-d.sendq:
				if !ok {
					break drain
				}
				batch = append(batch, q)
			default:
				break drain
			}
		}
		var err error
		if d.tc != nil {
			iov, frames, err = d.writeVectored(batch, iov, frames)
		} else {
			err = d.writeCoalesced(batch)
		}
		d.mu.Lock()
		for i, q := range batch {
			d.completions = append(d.completions, completion{pkt: q, err: err})
			batch[i] = nil
		}
		closed := d.closed
		d.mu.Unlock()
		if err != nil && !closed {
			return
		}
	}
}

// writeVectored flushes the batch through one net.Buffers write — a
// single writev on a TCP connection. Each packet contributes a pooled
// prefix+header iovec and its payload iovec; payload bytes are never
// copied. The iov and frames scratch slices are returned (emptied) for
// reuse by the next flush.
func (d *Driver) writeVectored(batch []*core.Packet, iov net.Buffers, frames []*core.Buf) (net.Buffers, []*core.Buf, error) {
	iov = iov[:0]
	frames = frames[:0]
	for _, p := range batch {
		f := core.GetBuf(4 + core.HeaderLen)
		binary.LittleEndian.PutUint32(f.B, uint32(p.WireLen()))
		core.EncodeHeader(f.B[4:], &p.Hdr)
		iov = append(iov, f.B)
		if len(p.Payload) > 0 {
			iov = append(iov, p.Payload)
		}
		frames = append(frames, f)
	}
	// WriteTo consumes its receiver, so flush through a copy and keep
	// iov intact to zero the payload references afterwards.
	bufs := iov
	_, err := bufs.WriteTo(d.tc)
	for i := range iov {
		iov[i] = nil
	}
	for i, f := range frames {
		f.Release()
		frames[i] = nil
	}
	return iov[:0], frames[:0], err
}

// writeCoalesced flushes the batch as one buffered Write for connections
// without writev support: every frame — length prefix, header, payload —
// lands in a single pooled staging buffer, so even a lone packet costs
// one syscall instead of the historical prefix-then-body pair.
func (d *Driver) writeCoalesced(batch []*core.Packet) error {
	total := 0
	for _, p := range batch {
		total += 4 + p.WireLen()
	}
	f := core.GetBuf(total)
	off := 0
	for _, p := range batch {
		binary.LittleEndian.PutUint32(f.B[off:], uint32(p.WireLen()))
		off += 4
		off += core.EncodeHeader(f.B[off:], &p.Hdr)
		off += copy(f.B[off:], p.Payload)
	}
	_, err := d.conn.Write(f.B)
	f.Release()
	return err
}

func (d *Driver) reader() {
	defer d.wg.Done()
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(d.br, lenBuf[:]); err != nil {
			d.readerDone(err)
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n < core.HeaderLen || n > 256<<20 {
			d.readerDone(fmt.Errorf("tcpdrv: bad frame length %d", n))
			return
		}
		f := core.GetBuf(int(n))
		if _, err := io.ReadFull(d.br, f.B); err != nil {
			f.Release()
			d.readerDone(err)
			return
		}
		pkt, err := core.UnmarshalFrame(f) // releases f on error
		if err != nil {
			d.readerDone(err)
			return
		}
		d.mu.Lock()
		d.inbox = append(d.inbox, pkt)
		d.mu.Unlock()
	}
}

func (d *Driver) readerDone(err error) {
	d.mu.Lock()
	if d.rerr == nil && !d.closed {
		d.rerr = err
	}
	d.mu.Unlock()
}

// NeedsPoll implements core.Driver: real sockets need pumping, so the
// rail joins the engine's active poll set.
func (d *Driver) NeedsPoll() bool { return true }

// Poll implements core.Driver: delivers queued completions and arrivals,
// and reports a dead reader (peer gone, corrupt frame) as a rail failure
// exactly once. When the bound Events sink supports batching (the
// engine's does), the whole drain crosses into the progress domain as
// one batch — one wakeup and one lock acquisition instead of one per
// event. Safe for concurrent callers. The drained queues' backing arrays
// are recycled, so a steady-state poll allocates nothing.
func (d *Driver) Poll() {
	d.pollMu.Lock()
	defer d.pollMu.Unlock()
	d.mu.Lock()
	comps := d.completions
	d.completions = d.compSpare[:0]
	d.compSpare = nil
	inbox := d.inbox
	d.inbox = d.inboxSpare[:0]
	d.inboxSpare = nil
	rerr := d.rerr
	if rerr != nil && !d.rerrSent {
		d.rerrSent = true
	} else {
		rerr = nil
	}
	d.mu.Unlock()
	if len(comps)+len(inbox) > 0 || rerr != nil {
		batch := core.GetEventBatch()
		for i, c := range comps {
			comps[i] = completion{}
			if c.err != nil {
				batch.Add(core.DriverEvent{Kind: core.EvSendFailed, Pkt: c.pkt, Err: c.err})
			} else {
				batch.Add(core.DriverEvent{Kind: core.EvSendComplete})
			}
		}
		for i, pkt := range inbox {
			inbox[i] = nil
			batch.Add(core.DriverEvent{Kind: core.EvArrive, Pkt: pkt})
		}
		if rerr != nil {
			batch.Add(core.DriverEvent{Kind: core.EvRailDown, Err: rerr})
		}
		core.DeliverEvents(d.ev, d.rail, batch)
	}
	d.mu.Lock()
	if d.compSpare == nil {
		d.compSpare = comps[:0]
	}
	if d.inboxSpare == nil {
		d.inboxSpare = inbox[:0]
	}
	d.mu.Unlock()
}

// Err reports a terminal reader error, if any (io.EOF after a clean peer
// close).
func (d *Driver) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rerr
}

// Close implements core.Driver.
func (d *Driver) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	close(d.sendq)
	err := d.conn.Close()
	d.wg.Wait()
	return err
}

var _ core.Driver = (*Driver)(nil)
