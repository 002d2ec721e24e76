package main

import (
	"math"
	"sync/atomic"
	"time"

	"newmad/internal/core"
)

// The traced run measures each layer from outside the program, by timing
// calls into its public extension points:
//
//   - a core.Strategy decorator passed in core.Config (strategy layer),
//   - a core.Driver decorator around each driver before Gate.AddRail
//     (transmit layer),
//   - a core.Events decorator that the driver decorator installs in Bind
//     (the engine's arrival/completion handler: the match layer),
//   - timed calls to Gate.Isend/Irecv and Engine.Wait from the workload
//     code (collect and wake).
//
// Each decorator forwards exactly the optional interfaces its inner value
// implements (core.BatchEvents, core.Discarder), so the engine and the
// drivers take the same code path traced and untraced. Timestamps are
// kept in memory and summarised when the run ends.

var epoch = time.Now()

// now is the process clock every span is stamped with; both ends of a
// rail live in this process, so cross-end differences are meaningful.
func now() int64 { return int64(time.Since(epoch)) }

// tracer collects the per-layer spans and counts of one traced run.
type tracer struct {
	isend, irecv, match, wake, schedule, mplPost recorder
	// post pools the self time of every application post into the
	// engine (Isend, Irecv, IAllreduce); send and busy pool every
	// rail's, so each workload reports them whatever its rails.
	post, send, busy recorder

	submits, schedCalls, schedNil atomic.Int64
	dataPkts, dataSegs            atomic.Int64

	rails map[string]*railTrace
	order []string
	// shares reports each rail's share of the rendezvous body bytes; it
	// is set where the rails belong to one gate.
	shares bool
}

func newTracer() *tracer { return &tracer{rails: map[string]*railTrace{}} }

// gateTrace accumulates, per gate, the time spent in strategy and driver
// calls, so an enclosing span (Isend, an event delivery) can subtract
// the part its children cover and keep its self time. Those children run
// owning the gate's progress domain, i.e. nested in the enclosing call.
type gateTrace struct{ child atomic.Int64 }

// railTrace gathers the transmit-layer spans of one rail label, over both
// of its ends.
type railTrace struct {
	send, busy, deliver, pollGap recorder
	deliveries, events           atomic.Int64
	bodyBytes                    atomic.Int64
	bandwidth                    float64
}

// rail returns the trace for a rail label, created on first use. Called
// only while rails are built, before traffic starts.
func (t *tracer) rail(name string, prof core.Profile) *railTrace {
	rt := t.rails[name]
	if rt == nil {
		rt = &railTrace{bandwidth: prof.Bandwidth}
		t.rails[name] = rt
		t.order = append(t.order, name)
	}
	return rt
}

// selfTime records one call's self time: its duration minus the child
// time accrued on its gate meanwhile, clamped at zero (an event deferred
// to a concurrent domain owner can overlap that owner's children).
func selfTime(d, childBefore int64, gt *gateTrace) int64 {
	s := d - (gt.child.Load() - childBefore)
	if s < 0 {
		return 0
	}
	return s
}

// ---- strategy decorator -------------------------------------------------

type tracedStrategy struct {
	inner core.Strategy
	t     *tracer
}

// wrapStrategy decorates inner; the result implements core.Discarder
// exactly when inner does.
func (t *tracer) wrapStrategy(inner core.Strategy) core.Strategy {
	s := &tracedStrategy{inner: inner, t: t}
	if d, ok := inner.(core.Discarder); ok {
		return &tracedDiscarder{tracedStrategy: s, disc: d}
	}
	return s
}

func (s *tracedStrategy) Name() string { return s.inner.Name() }
func (s *tracedStrategy) Submit(b *core.Backlog, u *core.Unit) {
	s.t.submits.Add(1)
	s.inner.Submit(b, u)
}

func (s *tracedStrategy) Schedule(b *core.Backlog, r *core.Rail) *core.Packet {
	t0 := now()
	p := s.inner.Schedule(b, r)
	d := now() - t0
	s.t.schedule.add(float64(d))
	s.t.schedCalls.Add(1)
	switch {
	case p == nil:
		s.t.schedNil.Add(1)
	case p.Hdr.Kind == core.KData:
		s.t.dataPkts.Add(1)
		segs := int64(p.Hdr.Agg)
		if segs == 0 {
			segs = 1
		}
		s.t.dataSegs.Add(segs)
	}
	if td, ok := r.Driver().(*tracedDriver); ok {
		td.gt.child.Add(d)
	}
	return p
}

type tracedDiscarder struct {
	*tracedStrategy
	disc core.Discarder
}

func (s *tracedDiscarder) Discard(b *core.Backlog, u *core.Unit) { s.disc.Discard(b, u) }

// ---- driver decorator ---------------------------------------------------

// tracedDriver times Send and Poll and installs an Events decorator in
// Bind. Every other Driver method (NeedsPoll included) is the inner
// driver's, promoted through the embedded interface.
type tracedDriver struct {
	core.Driver
	t  *tracer
	rt *railTrace
	gt *gateTrace

	rail      atomic.Pointer[core.Rail] // set once AddRail returns
	sendStart atomic.Int64              // start of the outstanding Send, 0 if none
	lastSend  atomic.Int64              // start of the latest Send
	inEvent   atomic.Int64              // start of the latest event delivery
	lastPoll  atomic.Int64
}

func (t *tracer) wrapDriver(name string, gt *gateTrace, d core.Driver) *tracedDriver {
	return &tracedDriver{Driver: d, t: t, rt: t.rail(name, d.Profile()), gt: gt}
}

// attach adds drv as g's next rail; a traced driver learns its rail,
// whose idle flag tells it when a batched completion was delivered.
func attach(g *core.Gate, drv core.Driver) *core.Rail {
	r := g.AddRail(drv)
	if td, ok := drv.(*tracedDriver); ok {
		td.rail.Store(r)
	}
	return r
}

func (d *tracedDriver) Bind(rail int, ev core.Events) {
	te := &tracedEvents{inner: ev, d: d}
	if be, ok := ev.(core.BatchEvents); ok {
		d.Driver.Bind(rail, &tracedBatchEvents{tracedEvents: te, batch: be})
		return
	}
	d.Driver.Bind(rail, te)
}

func (d *tracedDriver) Send(p *core.Packet) error {
	t0 := now()
	// The engine posts the next packet only after the previous one
	// completed; an outstanding start here means the completion rode a
	// batch still being dispatched, so it ends at that delivery.
	if prev := d.sendStart.Swap(t0); prev != 0 {
		if ev := d.inEvent.Load(); ev >= prev {
			d.addBusy(ev - prev)
		}
	}
	d.lastSend.Store(t0)
	if p.Hdr.Kind == core.KChunk {
		d.rt.bodyBytes.Add(int64(len(p.Payload)))
	}
	c0 := d.gt.child.Load()
	err := d.Driver.Send(p)
	dur := now() - t0
	self := float64(selfTime(dur, c0, d.gt))
	d.rt.send.add(self)
	d.t.send.add(self)
	d.gt.child.Add(dur)
	return err
}

func (d *tracedDriver) addBusy(ns int64) {
	d.rt.busy.add(float64(ns))
	d.t.busy.add(float64(ns))
}

// Poll times the gap since the previous pump of a pumped driver; the
// engine also polls event-driven drivers once as it closes them.
func (d *tracedDriver) Poll() {
	if d.Driver.NeedsPoll() {
		t0 := now()
		if prev := d.lastPoll.Swap(t0); prev != 0 {
			d.rt.pollGap.add(float64(t0 - prev))
		}
	}
	d.Driver.Poll()
}

// completed ends the outstanding send's busy span at t.
func (d *tracedDriver) completed(t int64) {
	if prev := d.sendStart.Swap(0); prev != 0 && t >= prev {
		d.addBusy(t - prev)
	}
}

// ---- events decorator ---------------------------------------------------

type tracedEvents struct {
	inner core.Events
	d     *tracedDriver
}

// deliver times one engine handler call carrying n events and records
// its self time per event.
func (e *tracedEvents) deliver(n int, fwd func()) int64 {
	t0 := now()
	e.d.inEvent.Store(t0)
	c0 := e.d.gt.child.Load()
	fwd()
	d := now() - t0
	self := selfTime(d, c0, e.d.gt)
	e.d.t.match.add(float64(self) / float64(n))
	e.d.rt.deliveries.Add(1)
	e.d.rt.events.Add(int64(n))
	e.d.gt.child.Add(d)
	return t0
}

func (e *tracedEvents) SendComplete(rail int) {
	t0 := e.deliver(1, func() { e.inner.SendComplete(rail) })
	e.d.completed(t0)
}

func (e *tracedEvents) SendFailed(rail int, p *core.Packet, err error) {
	e.inner.SendFailed(rail, p, err)
}

func (e *tracedEvents) Arrive(rail int, p *core.Packet) {
	e.deliver(1, func() { e.inner.Arrive(rail, p) })
}

func (e *tracedEvents) RailDown(rail int, err error) { e.inner.RailDown(rail, err) }

// tracedBatchEvents is the decorator for a sink that accepts batches: it
// forwards each batch as one batch, so drivers keep their batched path.
type tracedBatchEvents struct {
	*tracedEvents
	batch core.BatchEvents
}

func (e *tracedBatchEvents) DeliverBatch(rail int, b *core.EventBatch) {
	n := b.Len()
	if n == 0 {
		n = 1
	}
	t0 := e.deliver(n, func() { e.batch.DeliverBatch(rail, b) })
	// A batch's entries are opaque from outside; the send it may have
	// completed shows as the rail going idle.
	if r := e.d.rail.Load(); r != nil && !r.Busy() {
		e.d.completed(t0)
	}
}

// ---- application-side spans ---------------------------------------------

// end is one side of a gate as the workloads drive it. With a nil
// tracer its methods are the plain engine calls.
type end struct {
	eng *core.Engine
	g   *core.Gate
	t   *tracer
	gt  *gateTrace
}

func (e *end) isend(tag uint32, b []byte) *core.SendReq {
	if e.t == nil {
		return e.g.Isend(tag, b)
	}
	c0 := e.gt.child.Load()
	t0 := now()
	req := e.g.Isend(tag, b)
	self := float64(selfTime(now()-t0, c0, e.gt))
	e.t.isend.add(self)
	e.t.post.add(self)
	return req
}

func (e *end) irecv(tag uint32, b []byte) *core.RecvReq {
	if e.t == nil {
		return e.g.Irecv(tag, b)
	}
	c0 := e.gt.child.Load()
	t0 := now()
	req := e.g.Irecv(tag, b)
	self := float64(selfTime(now()-t0, c0, e.gt))
	e.t.irecv.add(self)
	e.t.post.add(self)
	return req
}

// wait is Engine.Wait; traced, it records the wake span: the request's
// completion event to Wait returning, for requests that completed while
// the caller was waiting. It returns the completion time (0 untraced).
func (e *end) wait(req core.Request) (int64, error) {
	if e.t == nil {
		return 0, e.eng.Wait(req)
	}
	var done atomic.Int64
	called := now()
	req.OnComplete(func() { done.Store(now()) })
	err := e.eng.Wait(req)
	ret := now()
	c := done.Load()
	if c > called {
		e.t.wake.add(float64(ret - c))
	}
	return c, err
}

// summarise turns the collected spans into per-layer metrics. A layer
// the workload never exercised reports nothing; the pooled metrics
// every workload exercises are checked for when the result is printed.
func (t *tracer) summarise(out map[string]metric) {
	put := func(name, unit string, v float64) {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[name] = metric{v, unit}
		}
	}
	median := func(rec *recorder, scale float64) float64 { return rec.quantile(0.5) / scale }
	put("core.post_ns", "ns", median(&t.post, 1))
	put("core.isend_ns", "ns", median(&t.isend, 1))
	put("core.irecv_ns", "ns", median(&t.irecv, 1))
	put("core.match_ns", "ns", median(&t.match, 1))
	put("core.wake_us", "us", median(&t.wake, 1e3))
	put("core.wake_p99_us", "us", t.wake.quantile(0.99)/1e3)
	put("strategy.schedule_ns", "ns", median(&t.schedule, 1))
	put("strategy.schedule_calls_per_msg", "ratio", float64(t.schedCalls.Load())/float64(t.submits.Load()))
	put("strategy.idle_ratio", "ratio", float64(t.schedNil.Load())/float64(t.schedCalls.Load()))
	put("strategy.msgs_per_pkt", "ratio", float64(t.dataSegs.Load())/float64(t.dataPkts.Load()))
	put("mpl.post_ns", "ns", median(&t.mplPost, 1))
	put("drivers.send_ns", "ns", median(&t.send, 1))
	put("drivers.busy_us", "us", median(&t.busy, 1e3))

	var body, bw float64
	var events, deliveries int64
	for _, name := range t.order {
		rt := t.rails[name]
		p := "drivers." + name + "."
		put(p+"send_ns", "ns", median(&rt.send, 1))
		put(p+"busy_us", "us", median(&rt.busy, 1e3))
		put(p+"event_batch_len", "count", float64(rt.events.Load())/float64(rt.deliveries.Load()))
		put(p+"deliver_us", "us", median(&rt.deliver, 1e3))
		put(p+"poll_gap_us", "us", median(&rt.pollGap, 1e3))
		body += float64(rt.bodyBytes.Load())
		bw += rt.bandwidth
		events += rt.events.Load()
		deliveries += rt.deliveries.Load()
	}
	put("drivers.event_batch_len", "count", float64(events)/float64(deliveries))
	if !t.shares || body == 0 {
		return
	}
	worst := 0.0
	for _, name := range t.order {
		rt := t.rails[name]
		share := float64(rt.bodyBytes.Load()) / body
		put("strategy.rail_share."+name, "ratio", share)
		worst = math.Max(worst, math.Abs(share-rt.bandwidth/bw))
	}
	put("strategy.share_error", "ratio", worst)
}
