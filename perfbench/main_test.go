package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ttastartup/internal/campaign"
)

// TestMain lets the test binary stand in for the benchmark binary as a
// serve worker: the daemon re-execs os.Executable() with -serve-worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve-worker" {
		os.Exit(workerMain())
	}
	os.Exit(m.Run())
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		p         float64
		v         float64
		beyond    int
		meetsRule bool
	}{
		// Harrell–Davis values from mpmath.betainc at 30 digits.
		{111, 0.9, 100.4, 11, true},
		{101, 0.9, 91.4, 10, true},
		{100, 0.9, 90.5, 9, false},
		{18, 0.9, 16.6957024479787, 1, false},
		{111, 0.5, 56, 55, true},
		{22, 0.5, 11.5, 10, true},
	} {
		v, beyond := percentile(seq(tc.n), tc.p)
		if math.Abs(v-tc.v) > 1e-6 || beyond != tc.beyond || (beyond >= minBeyond) != tc.meetsRule {
			t.Errorf("n=%d p=%.1f: got %v with %d beyond, want %v with %d", tc.n, tc.p, v, beyond, tc.v, tc.beyond)
		}
	}
	// Two clusters, as a run's requests on a fast and a slow host make:
	// the estimate lies between them rather than on either.
	if v, _ := percentile([]float64{0.28, 0.3, 0.45, 0.47, 0.5, 2.0, 0.27}, 0.5); math.Abs(v-0.421109316696275) > 1e-9 {
		t.Errorf("two-cluster median = %v, want 0.421109316696275", v)
	}
	if v, _ := percentile([]float64{3}, 0.9); v != 3 {
		t.Errorf("one sample's p90 = %v, want 3", v)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(seq(10)); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]: it extrapolates.
	if q1, q2, q3 := quartiles([]float64{3, 1}); q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles(1, 3) = %v %v %v, want 0.5 2 3.5", q1, q2, q3)
	}
}

func streamKey(stream []request) []string {
	var out []string
	for _, q := range stream {
		out = append(out, q.Cat+" "+q.Req.Digest())
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	if !reflect.DeepEqual(streamKey(buildStream(7)), streamKey(buildStream(7))) {
		t.Error("serve-mixed: seed 7 built two different streams")
	}
	if reflect.DeepEqual(streamKey(buildStream(7)), streamKey(buildStream(8))) {
		t.Error("serve-mixed: seeds 7 and 8 built the same stream")
	}
	for _, s := range []sweep{fig6Sweep(), satSweep()} {
		if !reflect.DeepEqual(s.order(7), s.order(7)) {
			t.Error("sweep: seed 7 gave two unit orders")
		}
	}
}

func TestSeedsKeepCategoryCounts(t *testing.T) {
	type tally struct{ jobs, units, cached int }
	count := func(seed int64) map[string]tally {
		m := map[string]tally{}
		seen := map[string]bool{}
		for _, q := range buildStream(seed) {
			c := m[q.Cat]
			c.jobs++
			c.units += q.Units
			c.cached += q.Cached
			m[q.Cat] = c
			d := q.Req.Digest()
			if (q.Cat == catWarm || q.Cat == catMCFIWarm) && !seen[d] {
				t.Errorf("seed %d: a %s job comes before its original", seed, q.Cat)
			}
			seen[d] = true
		}
		return m
	}
	a, b := count(1), count(2)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seeds 1 and 2 differ per category:\n%v\n%v", a, b)
	}
	if a[catCold].jobs+a[catOverlap].jobs < 100 || a[catWarm].jobs < 100 {
		t.Errorf("want at least 100 cold and 100 warm verify jobs, got %v", a)
	}
	for _, s := range []sweep{fig6Sweep(), satSweep()} {
		x, y := s.order(1), s.order(2)
		ids := func(js []campaign.Job) map[string]int {
			m := map[string]int{}
			for _, j := range js {
				m[j.ID()]++
			}
			return m
		}
		if !reflect.DeepEqual(ids(x), ids(y)) {
			t.Error("sweep: two seeds ran different unit sets")
		}
	}
	if n := len(fig6Sweep().jobs); n != 18 {
		t.Errorf("fig6-bdd has %d units, want 18", n)
	}
	if n := len(satSweep().jobs); n != 22 {
		t.Errorf("sat-engines has %d units, want 22", n)
	}
}

// TestTinyStreamThroughWorkers runs a cold job and its resubmission on a
// daemon whose workers are re-exec'd copies of this binary.
func TestTinyStreamThroughWorkers(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	want, err := loadTable("serve-mixed")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	d, err := startDaemon(ctx, t.TempDir(), []string{exe, "-serve-worker"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cold := request{catCold, verifyRequest(2, []int{1}, []string{"timeliness"}, both, 0), 2, 0}
	warm := cold
	warm.Cat, warm.Cached = catWarm, 2
	jobs, _, err := runStream(ctx, d, []request{cold, warm}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{check: &checker{want: want}, metrics: map[string]float64{}}
	for _, j := range jobs {
		data, err := d.ReportJSON(j.st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var rep struct{ Records []campaign.Record }
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		for _, rec := range rep.Records {
			b.check.unit(rec.Job.ID(), recordOutcome(rec))
		}
	}
	if b.check.failed > 0 || b.check.attempted != 4 {
		t.Errorf("%d of %d units failed: %v", b.check.failed, b.check.attempted, b.check.problems)
	}
	if jobs[0].st.Executed != 2 || jobs[1].st.Cached != 2 || jobs[1].st.Executed != 0 {
		t.Errorf("cold job executed %d units, resubmission cached %d and executed %d; want 2, 2, 0",
			jobs[0].st.Executed, jobs[1].st.Cached, jobs[1].st.Executed)
	}
}

// TestTracedUnitsMatchTable checks that the traced run's direct layer
// calls reproduce the campaign's outcome on a counterexample unit and on
// one that goes through the liveness-to-safety product.
func TestTracedUnitsMatchTable(t *testing.T) {
	want, err := loadTable("sat-engines")
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range satSweep().jobs {
		if j.Topology != campaign.TopologyBus || j.Degree != 2 || j.Engine == "ic3" {
			continue
		}
		b := &bench{check: &checker{want: want}, metrics: map[string]float64{}}
		got, _, err := tracedUnit(context.Background(), nil, 0, j, nil)
		if err != nil {
			t.Fatalf("%s: %v", j.ID(), err)
		}
		if b.check.unit(j.ID(), got); b.check.failed > 0 {
			t.Error(b.check.problems)
		}
		if got.CexDigest == "" {
			t.Errorf("%s: want a counterexample", j.ID())
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found beside perfbench/")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], perfbench prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayerDefs())
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
}
