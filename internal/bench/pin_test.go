package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// The pin tests hold the simulated model still: every DES number the
// figures and the checked-in perf report print must come out
// byte-for-byte the same, so a refactor that claims to change no
// behaviour can prove it.

// TestPerfReportDESFamiliesMatchBench10 rebuilds the perf report at
// the CLI's default quality and compares every deterministic family
// (virtual-time figures and allocation counts) against BENCH_10.json.
// The wall-clock families (shm_latency, multigate_throughput) are
// machine-dependent and not compared; allocation counts are skipped
// under the race detector.
func TestPerfReportDESFamiliesMatchBench10(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_10.json")
	if err != nil {
		t.Fatal(err)
	}
	var want PerfReport
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := BuildPerfReport(Default())
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"pingpong_latency", got.PingpongLatency, want.PingpongLatency},
		{"allreduce_makespan", got.AllreduceMakespan, want.AllreduceMakespan},
		{"loss_recovery", got.LossRecovery, want.LossRecovery},
		{"tail_latency", got.TailLatency, want.TailLatency},
		{"adaptive_split", got.AdaptiveSplit, want.AdaptiveSplit},
		{"allocs_per_op", got.AllocsPerOp, want.AllocsPerOp},
	} {
		if f.name == "allocs_per_op" && raceEnabled {
			continue
		}
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s drifted from BENCH_10.json:\n got %+v\nwant %+v", f.name, f.got, f.want)
		}
	}
}

// TestFiguresMatchGolden renders every figure as CSV at Fast() quality,
// exactly as `nmad-bench -fig all -csv -warmup 1 -iters 3` prints
// them, and compares the bytes against testdata/figures_fast.csv.
// Regenerate the golden file with that command only when a change is
// meant to move the model.
func TestFiguresMatchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/figures_fast.csv")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, id := range FigureIDs() {
		fig, err := Build(id, Fast())
		if err != nil {
			t.Fatal(err)
		}
		fig.WriteCSV(&got)
		got.WriteString("\n")
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl := bytes.Split(got.Bytes(), []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("figure CSV differs from testdata/figures_fast.csv at line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}
