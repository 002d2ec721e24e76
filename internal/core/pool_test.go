package core

import (
	"errors"
	"reflect"
	"testing"
)

func TestClassForBoundaries(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0},
		{1 << poolMinBits, 0},
		{1<<poolMinBits + 1, 1},
		{128, 1},
		{129, 2},
		{1 << poolMaxBits, poolClasses - 1},
		{1<<poolMaxBits + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestBufLeaseAccountingBalances(t *testing.T) {
	before := PoolStats()
	sizes := []int{1, 64, 100, 4096, 1 << 20, 9 << 20} // last one oversize
	bufs := make([]*Buf, 0, len(sizes))
	for _, n := range sizes {
		b := GetBuf(n)
		if len(b.B) != n {
			t.Fatalf("GetBuf(%d): len(B) = %d", n, len(b.B))
		}
		bufs = append(bufs, b)
	}
	mid := PoolStats()
	if d := mid.Live - before.Live; d != int64(len(sizes)) {
		t.Fatalf("live after %d gets: %d", len(sizes), d)
	}
	for _, b := range bufs {
		b.Release()
	}
	after := PoolStats()
	if after.Live != before.Live {
		t.Fatalf("live not restored: %d -> %d", before.Live, after.Live)
	}
	if g, p := after.Gets-before.Gets, after.Puts-before.Puts; g != uint64(len(sizes)) || p != uint64(len(sizes)) {
		t.Fatalf("gets/puts = %d/%d, want %d/%d", g, p, len(sizes), len(sizes))
	}
}

func TestBufOversizeUnpooled(t *testing.T) {
	b := GetBuf(9 << 20)
	if b.class != -1 {
		t.Fatalf("9 MiB lease got class %d, want oversize", b.class)
	}
	b.Release() // must not panic or enter a pool
}

func TestBufDoubleReleasePanics(t *testing.T) {
	b := GetBuf(128)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	b.Release()
}

func TestPoisonCanaryCatchesWriteAfterRelease(t *testing.T) {
	SetPoolChecks(true)
	t.Cleanup(func() { SetPoolChecks(false) })
	b := GetBuf(100)
	full := b.full
	b.Release()
	full[5] = 1 // the use-after-free of arena allocation
	defer func() {
		full[5] = poisonByte // repair so a later lease of this buffer is clean
		if recover() == nil {
			t.Fatal("poison verification missed a write-after-release")
		}
	}()
	verifyPoison(b)
}

func TestPoisonedBufCleanOnRelease(t *testing.T) {
	SetPoolChecks(true)
	t.Cleanup(func() { SetPoolChecks(false) })
	// A lease that is written only while held must verify clean on its
	// next round trip through the pool.
	for i := 0; i < 4; i++ {
		b := GetBuf(256)
		for j := range b.B {
			b.B[j] = byte(j)
		}
		b.Release()
	}
}

func TestWrapBufReleasesThroughHook(t *testing.T) {
	before := PoolStats()
	ext := make([]byte, 512)
	freed := 0
	b := WrapBuf(ext, func() { freed++ })
	if len(b.B) != 512 {
		t.Fatalf("len(B) = %d", len(b.B))
	}
	mid := PoolStats()
	if mid.Live-before.Live != 1 {
		t.Fatal("wrapped lease not counted")
	}
	b.Release()
	if freed != 1 {
		t.Fatalf("free hook ran %d times", freed)
	}
	after := PoolStats()
	if after.Live != before.Live {
		t.Fatalf("live not restored: %d -> %d", before.Live, after.Live)
	}
	// The double-release guard applies to wrapped leases too.
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
		if freed != 1 {
			t.Fatalf("free hook ran %d times after double release", freed)
		}
	}()
	b.Release()
}

func TestEventBatchRecycleClears(t *testing.T) {
	b := GetEventBatch()
	b.Add(DriverEvent{Kind: EvArrive, Pkt: &Packet{}})
	b.Add(DriverEvent{Kind: EvSendComplete})
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	putEventBatch(b)
	if b.Len() != 0 {
		t.Fatalf("recycled batch still holds %d events", b.Len())
	}
}

// eventLog records plain (non-batch) Events callbacks in call order.
type eventLog struct{ got []DriverEvent }

func (l *eventLog) SendComplete(int) { l.got = append(l.got, DriverEvent{Kind: EvSendComplete}) }
func (l *eventLog) SendFailed(_ int, p *Packet, err error) {
	l.got = append(l.got, DriverEvent{Kind: EvSendFailed, Pkt: p, Err: err})
}
func (l *eventLog) Arrive(_ int, p *Packet) {
	l.got = append(l.got, DriverEvent{Kind: EvArrive, Pkt: p})
}
func (l *eventLog) RailDown(_ int, err error) {
	l.got = append(l.got, DriverEvent{Kind: EvRailDown, Err: err})
}

// batchLog also accepts whole batches.
type batchLog struct {
	eventLog
	batches []*EventBatch
}

func (l *batchLog) DeliverBatch(_ int, b *EventBatch) { l.batches = append(l.batches, b) }

func TestDeliverEventsReplaysInOrderAndRecycles(t *testing.T) {
	failed := errors.New("send failed")
	down := errors.New("rail down")
	want := []DriverEvent{
		{Kind: EvSendComplete},
		{Kind: EvArrive, Pkt: &Packet{}},
		{Kind: EvSendFailed, Pkt: &Packet{}, Err: failed},
		{Kind: EvArrive, Pkt: &Packet{}},
		{Kind: EvSendComplete},
		{Kind: EvRailDown, Err: down},
	}
	b := GetEventBatch()
	for _, e := range want {
		b.Add(e)
	}
	var sink eventLog
	DeliverEvents(&sink, 3, b)
	if !reflect.DeepEqual(sink.got, want) {
		t.Fatalf("plain sink got %+v, want %+v", sink.got, want)
	}
	if b.Len() != 0 {
		t.Fatalf("batch not recycled: still holds %d events", b.Len())
	}
	for i, e := range b.events[:cap(b.events)] {
		if e != (DriverEvent{}) {
			t.Fatalf("recycled batch slot %d still references %+v", i, e)
		}
	}
}

func TestDeliverEventsPassesBatchToBatchSink(t *testing.T) {
	b := GetEventBatch()
	b.Add(DriverEvent{Kind: EvSendComplete})
	var sink batchLog
	DeliverEvents(&sink, 0, b)
	if len(sink.batches) != 1 || sink.batches[0] != b || len(sink.got) != 0 {
		t.Fatalf("batch sink got batches %v and per-event calls %+v", sink.batches, sink.got)
	}
	if b.Len() != 1 {
		t.Fatalf("batch handed to DeliverBatch was modified: Len = %d", b.Len())
	}
}
