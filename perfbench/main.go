// Command perfbench is the wall-clock benchmark of the newmad engine over
// real rails: loopback TCP, udp+relnet, shared memory and in-process
// memory. Each workload prints the end-to-end metrics every workload
// shares; --trace 1 runs the workload untraced and then traced and
// prints the per-layer metrics every workload shares, with the tracing
// overhead on every end-to-end metric. What only one workload measures
// (per rail and size, per rail label, raw baselines, relnet, mpl) is
// printed on the detail line before the result.
//
//	go build -o perfbench . && ./perfbench --workload pingpong --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"newmad/internal/core"
	"newmad/internal/shmring"
)

// gomaxprocs is one P, at most nproc on any host. With two Ps on a
// two-CPU host the engine's spinning waiters and the drivers' reader and
// writer goroutines compete for the CPUs the host also time-slices, and
// the same binary measured the tcp pingpong at 17 us in some minutes and
// 1.7 ms in others (see README.md). With one P every goroutine shares
// one scheduler queue, and what still varies between runs is mostly the
// host's own drift.
const gomaxprocs = 1

// setupReps is how many times a run builds its engines and rails;
// setup_s is the median, and the last build carries the traffic. A
// build that ends in a tcp round trip takes anywhere from 0.5 to 6 ms,
// in steps of the engine's millisecond wait back-off, so the median
// needs this many builds to hold still from run to run.
const setupReps = 101

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the end-to-end metrics every workload prints on its
// result line with --trace 0, each as the workload defines it (see
// README.md). They are the ones BENCHMARK.json gates.
var endToEnd = []string{"setup_s", "cpu_per_op_us", "latency_us", "goodput_MBps"}

// perLayer are the per-layer metrics every workload prints on its
// result line with --trace 1; BENCHMARK.json declares the same list.
var perLayer = append([]string{
	"core.post_ns", "core.match_ns", "core.allocs_per_op", "core.live_leases_delta",
	"strategy.schedule_ns", "strategy.schedule_calls_per_msg", "strategy.idle_ratio", "strategy.msgs_per_pkt",
	"drivers.send_ns", "drivers.busy_us", "drivers.pkts_per_op", "drivers.bytes_per_pkt", "drivers.event_batch_len",
	"shmring.arena_live_delta", "leak.goroutines_delta", "leak.devshm_delta",
}, overheadNames(endToEnd)...)

func overheadNames(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = "trace_overhead." + n
	}
	return out
}

// run is one pass of one workload: its inputs, its accounting of the
// timed phase, and the metrics it produced.
type run struct {
	workload string
	seed     int64
	dur      time.Duration
	t        *tracer // nil when untraced

	attempted, failed int64
	ops               int64 // engine operations, the cpu/alloc denominator

	cpu     time.Duration
	mallocs uint64
	cpu0    time.Duration

	setups   []float64
	teardown func()

	metrics map[string]metric // end to end: the shared ones and the workload's own
	layers  map[string]metric // per-layer counters read from the program
	spans   map[string]metric // per-layer spans of a traced pass
	tails   map[string]int64  // sample count behind each p99 metric
}

func newRun(workload string, seed int64, dur time.Duration, traced bool) *run {
	r := &run{workload: workload, seed: seed, dur: dur,
		metrics: map[string]metric{}, layers: map[string]metric{}, spans: map[string]metric{},
		tails: map[string]int64{}}
	if traced {
		r.t = newTracer()
	}
	return r
}

func (r *run) metric(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// tail records the p99 of rec, in microseconds, as an end-to-end metric.
func (r *run) tail(name string, rec *recorder) {
	r.metric(name, "us", rec.quantile(0.99))
	r.tails[name] = rec.count()
}

// layer records a per-layer counter; a ratio over nothing (a rail that
// carried no packet) is left out rather than printed as NaN.
func (r *run) layer(name, unit string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		r.layers[name] = metric{v, unit}
	}
}

// op counts one engine operation and whether its output verified.
func (r *run) op(ok bool) {
	r.ops++
	r.rawOp(ok)
}

// rawOp counts one verified-or-failed operation outside the engine.
func (r *run) rawOp(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func readMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// startTimed and stopTimed bracket the engine's share of the timed
// phase (possibly in several blocks): process CPU accrues only inside.
func (r *run) startTimed() { r.cpu0 = cpuTime() }
func (r *run) stopTimed()  { r.cpu += cpuTime() - r.cpu0 }

// countAllocs runs f and adds the heap allocations made meanwhile, by
// every goroutine, to the run's count. Callers keep their own
// allocations out of f.
func (r *run) countAllocs(f func() error) error {
	m0 := readMallocs()
	err := f()
	r.mallocs += readMallocs() - m0
	return err
}

// setup builds the workload's engines and rails setupReps times, each
// time through a first round trip, and keeps the last build. build
// returns the teardown of what it built. Each build starts from a
// collected heap, so a collection the previous build left owing does
// not land in its time; on allreduce that alone moved the median by
// half from run to run.
func (r *run) setup(build func() (func(), error)) error {
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		td, err := build()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			td()
		} else {
			r.teardown = td
		}
	}
	return nil
}

// railCounters reports the transmit counters both ends of d's rails
// expose through Rail.Stats, per engine operation over them, and
// returns their packet and payload byte totals.
func (r *run) railCounters(d *duo, ops int64) (pkts, bytes uint64) {
	for i, ra := range d.railsA {
		pa, ba := ra.Stats()
		pb, bb := d.b.g.Rails()[i].Stats()
		name := d.pairs[i].name
		r.layer("drivers."+name+".pkts_per_op", "count", float64(pa+pb)/float64(ops))
		r.layer("drivers."+name+".bytes_per_pkt", "B", float64(ba+bb)/float64(pa+pb))
		pkts += pa + pb
		bytes += ba + bb
	}
	return pkts, bytes
}

// transmitted reports the packets all of a workload's rails sent, per
// engine operation, and their mean payload.
func (r *run) transmitted(pkts, bytes uint64) {
	r.layer("drivers.pkts_per_op", "count", float64(pkts)/float64(r.ops))
	r.layer("drivers.bytes_per_pkt", "B", float64(bytes)/float64(pkts))
}

// leakState is what a workload must hand back when it ends.
type leakState struct {
	leases, arena int64
	goroutines    int
	shm           int
}

func shmEntries() int {
	ents, err := os.ReadDir("/dev/shm")
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), shmring.NamePrefix) {
			n++
		}
	}
	return n
}

func snapshotLeaks() leakState {
	return leakState{
		leases:     core.PoolStats().Live,
		arena:      shmring.ArenaStats().Live,
		goroutines: runtime.NumGoroutine(),
		shm:        shmEntries(),
	}
}

// checkLeaks waits briefly for closed drivers' goroutines to exit, then
// reports every counter that did not return to its starting value.
func (r *run) checkLeaks(start leakState) error {
	var end leakState
	for deadline := time.Now().Add(3 * time.Second); ; {
		end = snapshotLeaks()
		if end == start || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.layer("core.live_leases_delta", "count", float64(end.leases-start.leases))
	r.layer("shmring.arena_live_delta", "count", float64(end.arena-start.arena))
	r.layer("leak.goroutines_delta", "count", float64(end.goroutines-start.goroutines))
	r.layer("leak.devshm_delta", "count", float64(end.shm-start.shm))
	if end != start {
		return fmt.Errorf("leak after %s: leases %+d, shm arena regions %+d, goroutines %+d, /dev/shm entries %+d",
			r.workload, end.leases-start.leases, end.arena-start.arena, end.goroutines-start.goroutines, end.shm-start.shm)
	}
	return nil
}

var workloads = map[string]struct {
	run       func(*run) error
	transport string
	shm       []string // metrics that need /dev/shm
}{
	"pingpong": {runPingpong, "tcp and udp over the loopback interface; shm over /dev/shm",
		[]string{"latency_us", "goodput_MBps", "shm_64B_half_rtt_us", "shm_64B_half_rtt_p99_us", "shm_64K_half_rtt_us"}},
	"msgrate":   {runMsgrate, "tcp over the loopback interface", nil},
	"stream":    {runStream, "tcp over the loopback interface plus shm over /dev/shm", []string{"latency_us", "goodput_MBps"}},
	"allreduce": {runAllreduce, "in-process memory (memdrv)", nil},
}

// execute runs one pass and finishes its common metrics.
func execute(name string, seed int64, dur time.Duration, traced bool) (*run, error) {
	r := newRun(name, seed, dur, traced)
	start := snapshotLeaks()
	err := workloads[name].run(r)
	if r.teardown != nil {
		r.teardown()
	}
	if err != nil {
		return r, err
	}
	r.metric("setup_s", "s", median(r.setups))
	if _, set := r.metrics["cpu_per_op_us"]; !set {
		r.metric("cpu_per_op_us", "us", r.cpu.Seconds()*1e6/float64(r.ops))
	}
	r.layer("core.allocs_per_op", "count", float64(r.mallocs)/float64(r.ops))
	if r.t != nil {
		r.t.summarise(r.spans)
	}
	return r, r.checkLeaks(start)
}

func utsString(a [65]int8) string {
	b := make([]byte, 0, len(a))
	for _, c := range a {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func fail(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", a...)
	os.Exit(1)
}

func main() {
	workload := flag.String("workload", "", "pingpong, msgrate, stream or allreduce")
	seed := flag.Int64("seed", 1, "seed of the payload bytes and size mixes")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: run untraced then traced and print the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok {
		fail("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail("need --seconds > 0 and --trace 0 or 1")
	}
	if len(w.shm) > 0 && !shmring.Supported() {
		fail("/dev/shm is missing or not writable; cannot measure %s", strings.Join(w.shm, ", "))
	}
	runtime.GOMAXPROCS(gomaxprocs)
	var uts syscall.Utsname
	_ = syscall.Uname(&uts) // the kernel string is informational
	host, _ := json.Marshal(map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"kernel": utsString(uts.Release), "transport": w.transport,
	})
	fmt.Printf("{\"host\": %s}\n", host)

	dur := time.Duration(*seconds * float64(time.Second))
	var runs []*run
	var all map[string]metric
	if *trace == 0 {
		r, err := execute(*workload, *seed, dur, false)
		runs = append(runs, r)
		if err != nil {
			fail("%v", err)
		}
		all = r.metrics
		for name, n := range r.tails {
			fmt.Fprintf(os.Stderr, "perfbench: %s over %d samples\n", name, n)
			if n < 1000 {
				fmt.Fprintf(os.Stderr, "perfbench: warning: %s has fewer than ten samples beyond it; raise --seconds\n", name)
			}
		}
	} else {
		plain, err := execute(*workload, *seed, dur/2, false)
		runs = append(runs, plain)
		if err != nil {
			fail("untraced pass: %v", err)
		}
		traced, err := execute(*workload, *seed, dur/2, true)
		runs = append(runs, traced)
		if err != nil {
			fail("traced pass: %v", err)
		}
		all = layerMetrics(plain, traced)
	}
	res := result{Correct: true}
	for _, r := range runs {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	res.Correct = res.Failed == 0
	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	out, detail, err := split(all, names)
	if err != nil {
		fail("%s: %v", *workload, err)
	}
	res.Metrics = out
	info, _ := json.Marshal(detail)
	fmt.Printf("{\"detail\": %s}\n", info)
	line, err := json.Marshal(res)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// layerMetrics merges a traced run's two passes. Counters read from the
// program (Rail.Stats, relnet, leases, allocations) and the raw
// baselines come from the untraced pass; spans come from the traced
// one; trace_overhead.<metric> is traced ÷ untraced for every
// end-to-end metric.
func layerMetrics(plain, traced *run) map[string]metric {
	out := map[string]metric{}
	for k, v := range plain.layers {
		out[k] = v
	}
	for k, v := range traced.spans {
		out[k] = v
	}
	for k, v := range plain.metrics {
		out["trace_overhead."+k] = metric{traced.metrics[k].Value / v.Value, "x"}
	}
	return out
}

// split parts all into the metrics named, for the result line, and the
// rest, for the detail line. A named metric that is missing or has no
// finite value is an error: the run prints no partial result.
func split(all map[string]metric, names []string) (out, detail map[string]metric, err error) {
	out, detail = map[string]metric{}, map[string]metric{}
	for k, v := range all {
		if !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0) {
			detail[k] = v
		}
	}
	var missing []string
	for _, n := range names {
		v, ok := all[n]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			missing = append(missing, n)
			continue
		}
		out[n] = v
		delete(detail, n)
	}
	if len(missing) > 0 {
		return nil, nil, fmt.Errorf("no value for %s", strings.Join(missing, ", "))
	}
	return out, detail, nil
}
