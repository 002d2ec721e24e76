// Package trace collects engine trace events for diagnostics, tests and
// ablation analysis: which rail carried what, how much was aggregated,
// when rendezvous were granted.
package trace

import (
	"fmt"
	"io"
	"sync"

	"newmad/internal/core"
)

// Collector accumulates trace events. The zero value is ready to use.
// A bounded collector is a ring: once full, each new event overwrites
// the oldest in O(1).
type Collector struct {
	mu   sync.Mutex
	evs  []core.TraceEvent
	head int // index of the oldest event once the ring is full
	max  int
}

// New returns a collector that keeps at most max events (0 = unbounded).
func New(max int) *Collector { return &Collector{max: max} }

// Hook returns the function to install as core.Config.Trace.
func (c *Collector) Hook() func(core.TraceEvent) {
	return func(ev core.TraceEvent) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.max > 0 && len(c.evs) == c.max {
			c.evs[c.head] = ev
			c.head = (c.head + 1) % c.max
			return
		}
		c.evs = append(c.evs, ev)
	}
}

// Events returns a snapshot of collected events, oldest first.
func (c *Collector) Events() []core.TraceEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append(append([]core.TraceEvent(nil), c.evs[c.head:]...), c.evs[:c.head]...)
}

// Reset discards collected events.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evs = c.evs[:0]
	c.head = 0
}

// Count returns the number of events matching the filter (nil matches
// all).
func (c *Collector) Count(match func(core.TraceEvent) bool) int {
	n := 0
	for _, ev := range c.Events() {
		if match == nil || match(ev) {
			n++
		}
	}
	return n
}

// Posted counts packets of the given kind posted to rail (-1 = any rail).
func (c *Collector) Posted(kind core.Kind, rail int) int {
	return c.Count(func(ev core.TraceEvent) bool {
		return ev.Ev == "post" && ev.Kind == kind && (rail < 0 || ev.Rail == rail)
	})
}

// BytesOnRail sums posted payload bytes per rail.
func (c *Collector) BytesOnRail(rail int) int {
	n := 0
	for _, ev := range c.Events() {
		if ev.Ev == "post" && ev.Rail == rail {
			n += ev.Len
		}
	}
	return n
}

// MaxAgg returns the largest aggregation count observed in posted
// packets.
func (c *Collector) MaxAgg() int {
	max := 0
	for _, ev := range c.Events() {
		if ev.Ev == "post" && ev.Agg > max {
			max = ev.Agg
		}
	}
	return max
}

// Dump writes a human-readable event log.
func (c *Collector) Dump(w io.Writer) {
	for _, ev := range c.Events() {
		fmt.Fprintf(w, "%10d %-9s gate=%s rail=%d %-5s agg=%d len=%d tag=%d msg=%d\n",
			ev.Now, ev.Ev, ev.Gate, ev.Rail, ev.Kind, ev.Agg, ev.Len, ev.Tag, ev.Msg)
	}
}
