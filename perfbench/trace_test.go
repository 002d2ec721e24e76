package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/strategy"
)

// fakeDriver records what the decorator hands it.
type fakeDriver struct {
	ev    core.Events
	polls int
}

func (f *fakeDriver) Name() string               { return "fake" }
func (f *fakeDriver) Profile() core.Profile      { return core.Profile{Name: "fake", Bandwidth: 1} }
func (f *fakeDriver) Bind(_ int, ev core.Events) { f.ev = ev }
func (f *fakeDriver) Send(*core.Packet) error    { return nil }
func (f *fakeDriver) NeedsPoll() bool            { return true }
func (f *fakeDriver) Poll()                      { f.polls++ }
func (f *fakeDriver) Close() error               { return nil }

// plainSink implements only core.Events.
type plainSink struct{ arrivals int }

func (s *plainSink) SendComplete(int)                    {}
func (s *plainSink) SendFailed(int, *core.Packet, error) {}
func (s *plainSink) Arrive(int, *core.Packet)            { s.arrivals++ }
func (s *plainSink) RailDown(int, error)                 {}

// batchSink also implements core.BatchEvents.
type batchSink struct {
	plainSink
	batches []*core.EventBatch
}

func (s *batchSink) DeliverBatch(_ int, b *core.EventBatch) { s.batches = append(s.batches, b) }

func TestEventsDecoratorKeepsBatches(t *testing.T) {
	tr := newTracer()
	f := &fakeDriver{}
	d := tr.wrapDriver("fake", &gateTrace{}, f)

	sink := &batchSink{}
	d.Bind(0, sink)
	be, ok := f.ev.(core.BatchEvents)
	if !ok {
		t.Fatal("decorated batch sink does not implement core.BatchEvents: drivers would fall back to per-event delivery")
	}
	b := core.GetEventBatch()
	b.Add(core.DriverEvent{Kind: core.EvSendComplete})
	b.Add(core.DriverEvent{Kind: core.EvSendComplete})
	be.DeliverBatch(0, b)
	if len(sink.batches) != 1 || sink.batches[0] != b {
		t.Fatalf("batch of 2 reached the sink as %d batches", len(sink.batches))
	}
	if got := tr.rails["fake"].events.Load(); got != 2 {
		t.Fatalf("traced %d events, want 2", got)
	}

	d.Bind(0, &plainSink{})
	if _, ok := f.ev.(core.BatchEvents); ok {
		t.Fatal("decorated plain sink claims core.BatchEvents")
	}
}

// discardStrategy is a FIFO that records Discard calls.
type discardStrategy struct {
	*strategy.FIFO
	discards int
}

func (s *discardStrategy) Discard(*core.Backlog, *core.Unit) { s.discards++ }

func TestStrategyDecoratorForwardsDiscarder(t *testing.T) {
	tr := newTracer()
	if _, ok := tr.wrapStrategy(strategy.NewSplit(strategy.SplitRatio)).(core.Discarder); !ok {
		t.Fatal("decorated split strategy is not a core.Discarder")
	}
	inner := &discardStrategy{FIFO: strategy.NewFIFO(0)}
	w, ok := tr.wrapStrategy(inner).(core.Discarder)
	if !ok {
		t.Fatal("decorated discarder is not a core.Discarder")
	}
	w.Discard(nil, nil)
	if inner.discards != 1 {
		t.Fatalf("Discard reached the inner strategy %d times, want 1", inner.discards)
	}
	if _, ok := tr.wrapStrategy(strategy.NewFIFO(0)).(core.Discarder); ok {
		t.Fatal("decorated FIFO claims core.Discarder")
	}
}

func TestDriverDecoratorForwardsPoll(t *testing.T) {
	tr := newTracer()
	f := &fakeDriver{}
	d := tr.wrapDriver("fake", &gateTrace{}, f)
	if !d.NeedsPoll() {
		t.Fatal("NeedsPoll not forwarded")
	}
	d.Poll()
	d.Poll()
	if f.polls != 2 {
		t.Fatalf("inner driver polled %d times, want 2", f.polls)
	}

	// tcpdrv is the pumped driver: traced round trips must still pump it
	// through the decorator and deliver its events in batches.
	p, err := tcpPair("tcp")
	if err != nil {
		t.Fatal(err)
	}
	du := newDuo(tr, func() core.Strategy { return strategy.NewFIFO(0) }, []railPair{p})
	defer du.close()
	if !du.drvA[0].NeedsPoll() {
		t.Fatal("decorated tcpdrv does not need polling")
	}
	b := newPingBuffers(newRNG(1, 0), 64)
	bad := 0
	n, err := engineBlock(du, b, time.Now().Add(50*time.Millisecond), func(_ time.Duration, ok bool) {
		if !ok {
			bad++
		}
	}, &tr.rail("tcp", core.Profile{}).deliver)
	if err != nil || bad > 0 || n == 0 {
		t.Fatalf("round trips %d, unverified %d, err %v", n, bad, err)
	}
	rt := tr.rails["tcp"]
	if rt.pollGap.count() == 0 || rt.deliveries.Load() == 0 || rt.deliver.count() == 0 {
		t.Fatalf("tcp rail not traced: polls %d deliveries %d", rt.pollGap.count(), rt.deliveries.Load())
	}
}

// TestTracedRunKeepsPacketCounts runs the msgrate flow traced and
// untraced at one seed and compares the packets each rail sent. Over
// tcp the count depends on how far the writer goroutine lags, traced or
// not; over memdrv, which completes sends synchronously, it depends only
// on the strategy's decisions, so any change the decorators make to
// scheduling shows as a different count.
func TestTracedRunKeepsPacketCounts(t *testing.T) {
	const msgs = 3000
	memRails := func() ([]railPair, error) { return []railPair{memPair("m0"), memPair("m1")}, nil }
	counts := func(traced bool) []uint64 {
		r := newRun("msgrate", 7, time.Hour, traced)
		d, err := flowSetup(r, memRails)
		if err != nil {
			t.Fatal(err)
		}
		defer r.teardown()
		st, err := flow(r, d, msgratePlan(r.seed), msgWindow, time.Hour, msgs)
		if err != nil || st.msgs != msgs || r.failed != 0 {
			t.Fatalf("traced=%v: delivered %d of %d, failed %d, err %v", traced, st.msgs, msgs, r.failed, err)
		}
		var pkts []uint64
		for _, ra := range d.railsA {
			n, _ := ra.Stats()
			pkts = append(pkts, n)
		}
		return pkts
	}
	plain, traced := counts(false), counts(true)
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("rail %d sent %d packets untraced, %d traced", i, plain[i], traced[i])
		}
	}
}

// TestMetricsDeclared checks that the result line's metric lists are
// the ones BENCHMARK.json declares, with their units, and that every
// workload, run briefly untraced and traced, prints each of them.
func TestMetricsDeclared(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	declared := func(what string, list []struct{ Name, Unit string }, names []string) map[string]string {
		m := map[string]string{}
		for _, x := range list {
			m[x.Name] = x.Unit
		}
		if len(m) != len(names) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", what, len(m), len(names))
		}
		for _, n := range names {
			if _, ok := m[n]; !ok {
				t.Errorf("%s: %s is printed but not declared", what, n)
			}
		}
		return m
	}
	e2e := declared("end_to_end", doc.EndToEnd, endToEnd)
	layers := declared("per_layer", doc.PerLayer, perLayer)
	check := func(what string, all map[string]metric, names []string, want map[string]string) {
		out, _, err := split(all, names)
		if err != nil {
			t.Errorf("%s: %v", what, err)
			return
		}
		for name, m := range out {
			if m.Unit != want[name] {
				t.Errorf("%s prints %s in %q; BENCHMARK.json declares %q", what, name, m.Unit, want[name])
			}
		}
	}
	for name := range workloads {
		plain, err := execute(name, 1, 300*time.Millisecond, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, plain.metrics, endToEnd, e2e)
		traced, err := execute(name, 1, 300*time.Millisecond, true)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		check(name+" traced", layerMetrics(plain, traced), perLayer, layers)
	}
}
