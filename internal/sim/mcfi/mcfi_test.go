package mcfi

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"ttastartup/internal/obs"
	"ttastartup/internal/tta/sim"
)

// testSpec is a small mixed campaign: large enough to populate every
// scenario kind, corpus bucket class, and several batches.
func testSpec() Spec {
	return Spec{N: 4, Samples: 1500, Seed: 42, Batch: 200}
}

func renderJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunDeterministicAcrossWorkers: the report is byte-identical whether
// batches run sequentially or on a parallel pool — the property that makes
// every other reproducibility guarantee (resume, replay) possible.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	seq, err := Run(ctx, testSpec(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(ctx, testSpec(), RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderJSON(t, seq), renderJSON(t, par)
	if !bytes.Equal(a, b) {
		t.Fatalf("workers=1 and workers=4 reports differ:\n%s\n----\n%s", a, b)
	}
	if !seq.Completed || seq.Samples != 1500 {
		t.Fatalf("campaign did not complete: %+v", seq)
	}
	if seq.TotalRuns() != 1500 {
		t.Fatalf("kind stats sum to %d runs, want 1500", seq.TotalRuns())
	}
	if seq.CoverEdges == 0 || seq.CoverStates == 0 || seq.CoverEdges > seq.EdgeSpace {
		t.Fatalf("implausible coverage: %d states, %d/%d edges", seq.CoverStates, seq.CoverEdges, seq.EdgeSpace)
	}
	if len(seq.Corpus) == 0 {
		t.Fatal("campaign retained no corpus entries")
	}
}

// TestCheckpointResume: a campaign paused mid-way (StopAfterBatches) and
// resumed from its checkpoint produces a final report byte-identical to an
// uninterrupted run's.
func TestCheckpointResume(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ck := filepath.Join(dir, "campaign.jsonl")

	partial, err := Run(ctx, testSpec(), RunOptions{Workers: 3, Checkpoint: ck, StopAfterBatches: 3})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Completed || partial.Batches != 3 || partial.Samples != 600 {
		t.Fatalf("pause did not stop after 3 batches: %+v", partial)
	}

	resumed, err := Run(ctx, testSpec(), RunOptions{Workers: 3, Checkpoint: ck, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	straight, err := Run(ctx, testSpec(), RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderJSON(t, resumed), renderJSON(t, straight)
	if !bytes.Equal(a, b) {
		t.Fatalf("resumed and uninterrupted reports differ:\n%s\n----\n%s", a, b)
	}
}

// TestTornTailRecovery: a checkpoint with a torn (partial) trailing line —
// the crash signature — resumes cleanly and still converges to the
// uninterrupted report.
func TestTornTailRecovery(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ck := filepath.Join(dir, "campaign.jsonl")

	if _, err := Run(ctx, testSpec(), RunOptions{Workers: 2, Checkpoint: ck, StopAfterBatches: 4}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(ck, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"batch":4,"first":800,"count":200,"kinds":{"tr`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resumed, err := Run(ctx, testSpec(), RunOptions{Workers: 2, Checkpoint: ck, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	straight, err := Run(ctx, testSpec(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderJSON(t, resumed), renderJSON(t, straight)) {
		t.Fatal("torn-tail resume diverged from the uninterrupted report")
	}
}

// TestDigestMismatch: a checkpoint cannot be resumed under a different
// spec.
func TestDigestMismatch(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ck := filepath.Join(dir, "campaign.jsonl")
	if _, err := Run(ctx, testSpec(), RunOptions{Checkpoint: ck, StopAfterBatches: 1}); err != nil {
		t.Fatal(err)
	}
	other := testSpec()
	other.Seed = 43
	if _, err := Run(ctx, other, RunOptions{Checkpoint: ck, Resume: true}); err == nil {
		t.Fatal("resume under a different spec succeeded")
	}
}

// TestBudgetPause: the slot budget pauses the campaign at a deterministic
// batch boundary; resuming without the budget finishes it.
func TestBudgetPause(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ck := filepath.Join(dir, "campaign.jsonl")

	partial, err := Run(ctx, testSpec(), RunOptions{Workers: 4, Checkpoint: ck, BudgetSlots: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Completed {
		t.Fatalf("5000-slot budget did not pause a %d-sample campaign", partial.Spec.Samples)
	}
	again, err := Run(ctx, testSpec(), RunOptions{Workers: 1, BudgetSlots: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderJSON(t, partial), renderJSON(t, again)) {
		t.Fatal("budget pause point depends on worker count")
	}
	full, err := Run(ctx, testSpec(), RunOptions{Workers: 2, Checkpoint: ck, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Completed {
		t.Fatal("resume without budget did not complete")
	}
}

// TestCorpusEntries validates corpus content: reasons are populated,
// coverage entries really covered new edges, every entry regenerates to
// its recorded kind and seed, and bucket caps keep high-rate finding
// classes from flooding the corpus.
func TestCorpusEntries(t *testing.T) {
	sp := testSpec().Normalize()
	rep, err := Run(context.Background(), sp, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := sp.GenParams()
	if err != nil {
		t.Fatal(err)
	}
	soleReason := make(map[string]int)
	for _, e := range rep.Corpus {
		if len(e.Reasons) == 0 {
			t.Fatalf("entry %d has no reasons", e.Index)
		}
		for _, r := range e.Reasons {
			if r == ReasonCoverage && e.NewEdges == 0 {
				t.Fatalf("entry %d claims coverage but no new edges", e.Index)
			}
		}
		s := sim.GenScenario(g, sp.Seed, e.Index)
		if s.Seed != e.Seed || s.Kind.String() != e.Kind {
			t.Fatalf("entry %d does not regenerate: %s/%d vs %s/%d", e.Index, s.Kind, s.Seed, e.Kind, e.Seed)
		}
		if len(e.Reasons) == 1 && e.Reasons[0] != ReasonCoverage {
			soleReason[e.Kind+"/"+e.Reasons[0]]++
		}
	}
	for bucket, n := range soleReason {
		if n > sp.CorpusPerBucket {
			t.Errorf("bucket %s holds %d sole-reason entries, cap is %d", bucket, n, sp.CorpusPerBucket)
		}
	}
	// The node-and-hub kind disagrees in a fifth of its runs; without caps
	// the corpus would hold hundreds of those entries.
	if len(rep.Corpus) > 40*NumCorpusClasses(sp) {
		t.Fatalf("corpus has %d entries — caps not effective", len(rep.Corpus))
	}
}

// NumCorpusClasses bounds the number of (kind, reason) buckets for a spec
// — only used to sanity-check cap effectiveness in tests.
func NumCorpusClasses(sp Spec) int { return len(sp.Normalize().Mix) * 4 }

// TestCoverageSubsetOfModel: at a small scope with an in-hypothesis-only
// mix, every abstract state the simulation visits must lie inside the
// union of the verified model's reachable abstractions — the conformance
// theorem lifted to the coverage abstraction.
func TestCoverageSubsetOfModel(t *testing.T) {
	if testing.Short() {
		t.Skip("model BFS in -short mode")
	}
	// Degree 2 keeps the reference model's per-state havoc enumeration
	// small; the abstraction machinery under test is degree-independent.
	sp := Spec{
		N: 3, Samples: 800, Seed: 7, Batch: 200, DeltaInit: 2, Degree: 2,
		Mix: map[string]int{
			sim.ScenFaultFree.String():  1,
			sim.ScenFaultyNode.String(): 2,
			sim.ScenFaultyHub.String():  2,
			sim.ScenRestart.String():    2,
		},
	}
	dir := t.TempDir()
	ck := filepath.Join(dir, "campaign.jsonl")
	rep, err := Run(context.Background(), sp, RunOptions{Workers: 2, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	visited, err := VisitedStates(ck, sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != rep.CoverStates {
		t.Fatalf("checkpoint reduces to %d states, report says %d", len(visited), rep.CoverStates)
	}
	cfgs, err := sp.ModelConfigs()
	if err != nil {
		t.Fatal(err)
	}
	union, detail, err := ModelAbstractUnion(cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range detail {
		if d.Reachable == 0 || d.AbstractStates == 0 {
			t.Fatalf("model config %s explored no states", d.Name)
		}
	}
	outside := 0
	var sample uint64
	for code := range visited {
		if _, ok := union[code]; !ok {
			outside++
			sample = code
		}
	}
	if outside > 0 {
		t.Fatalf("%d of %d visited abstract states are outside the model union (e.g. %#x)",
			outside, len(visited), sample)
	}
}

// TestReplayCorpus: violating, near-violating, and beyond-hypothesis
// corpus entries all replay with every cross-check green.
func TestReplayCorpus(t *testing.T) {
	sp := testSpec()
	rep, err := Run(context.Background(), sp, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Replay the interesting end of the corpus: all violating/near entries
	// plus a slice of the rest, bounded to keep successor enumeration (the
	// expensive part, at n=4) in check.
	var entries []CorpusEntry
	others := 0
	for _, e := range rep.Corpus {
		if e.Violation || hasReason(e, ReasonNear) {
			entries = append(entries, e)
		} else if others < 8 {
			entries = append(entries, e)
			others++
		}
	}
	if len(entries) == 0 {
		t.Fatal("nothing to replay")
	}
	scope := obs.Scope{Reg: obs.NewRegistry()}
	results, err := ReplayCorpusCtx(context.Background(), sp, entries, 4, scope)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.OK {
			t.Errorf("entry %d (%s, index %d) failed replay: %+v", i, r.Kind, r.Index, r)
		}
	}
	if got := scope.Reg.Counter(obs.MSimReplays).Value(); got != int64(len(entries)) {
		t.Fatalf("sim.replays = %d, want %d", got, len(entries))
	}
	if got := scope.Reg.Counter(obs.MSimReplayFails).Value(); got != 0 {
		t.Fatalf("sim.replays.failed = %d", got)
	}
}

func hasReason(e CorpusEntry, reason string) bool {
	for _, r := range e.Reasons {
		if r == reason {
			return true
		}
	}
	return false
}

// TestSpecDigest: the digest covers normalized content, not spelling.
func TestSpecDigest(t *testing.T) {
	a := Spec{N: 4, Samples: 1000, Seed: 42}
	b := a
	b.Batch = 1000 // the default Normalize fills in
	if a.Digest() != b.Digest() {
		t.Fatal("digest distinguishes a spec from its normalization")
	}
	c := a
	c.Seed = 43
	if a.Digest() == c.Digest() {
		t.Fatal("digest ignores the seed")
	}
}

// TestEdgeString renders node and hub transitions.
func TestEdgeString(t *testing.T) {
	if s := EdgeString(4, edgeKey(0, int(sim.NodeListen), int(sim.NodeColdstart))); s != "node0:listen->coldstart" {
		t.Errorf("node edge renders as %q", s)
	}
	if s := EdgeString(4, edgeKey(5, int(sim.HubStartup), int(sim.HubActive))); s != "hub1:startup->active" {
		t.Errorf("hub edge renders as %q", s)
	}
}

// TestExecuteBatchReduceMatchesRun: batches computed independently (and
// fed to the reducer out of order) rebuild the exact report Run produces —
// the property the serve daemon's per-batch fan-out relies on.
func TestExecuteBatchReduceMatchesRun(t *testing.T) {
	sp := testSpec()
	want, err := Run(context.Background(), sp, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := sp.Normalize().Batches()
	recs := make([]BatchRecord, 0, n)
	for b := n - 1; b >= 0; b-- { // deliberately reversed
		rec, err := ExecuteBatch(sp, b)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		recs = append(recs, rec)
	}
	got, err := ReduceRecords(sp, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Completed {
		t.Fatal("reduced report not marked completed")
	}
	if !bytes.Equal(renderJSON(t, got), renderJSON(t, want)) {
		t.Fatal("reduced report differs from Run report")
	}
	if _, err := ExecuteBatch(sp, n); err == nil {
		t.Fatal("out-of-range batch accepted")
	}
	if _, err := ReduceRecords(sp, recs[:len(recs)-1]); err == nil {
		t.Fatal("non-contiguous batch set accepted")
	}
}

// TestScenarioReproducesCorpus: Spec.Scenario(k) is the run the campaign
// executed at index k — what lets `ttasim -seed S -index K` replay any
// corpus entry of the same spec with a trace. The default mix matters: a
// single-kind expansion would still match the fault-free entries.
func TestScenarioReproducesCorpus(t *testing.T) {
	sp := Spec{N: 4, Samples: 2000, Seed: 7, Batch: 500}
	rep, err := Run(context.Background(), sp, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	faulty := 0
	for _, e := range rep.Corpus {
		s, err := sp.Scenario(e.Index)
		if err != nil {
			t.Fatal(err)
		}
		if s.Seed != e.Seed || s.Kind.String() != e.Kind || s.Describe() != e.Desc {
			t.Errorf("entry %d: Scenario gives %s seed %d %q, corpus has %s seed %d %q",
				e.Index, s.Kind, s.Seed, s.Describe(), e.Kind, e.Seed, e.Desc)
		}
		if e.Kind != sim.ScenFaultFree.String() {
			faulty++
		}
	}
	if faulty == 0 {
		t.Fatal("corpus holds only fault-free entries")
	}
}

// TestRunCancelAndCounters: a cancelled context returns an error, and a
// completed run publishes sim.runs and sim.slots.
func TestRunCancelAndCounters(t *testing.T) {
	sp := Spec{N: 4, Samples: 50, Seed: 7, Mix: map[string]int{"fault-free": 1}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, sp, RunOptions{}); err == nil {
		t.Fatal("cancelled campaign returned no error")
	}

	scope := obs.Scope{Reg: obs.NewRegistry()}
	rep, err := Run(context.Background(), sp, RunOptions{Scope: scope})
	if err != nil {
		t.Fatal(err)
	}
	if ks := rep.Kinds["fault-free"]; ks == nil || ks.Synced != 50 {
		t.Fatalf("fault-free campaign: %v synchronized, want 50", rep.Kinds)
	}
	if got := scope.Reg.Counter(obs.MSimRuns).Value(); got != 50 {
		t.Fatalf("sim.runs = %d, want 50", got)
	}
	if scope.Reg.Counter(obs.MSimSlots).Value() == 0 {
		t.Fatal("sim.slots not published")
	}
}

func TestParseMix(t *testing.T) {
	for _, in := range []string{" fault-free:1, faulty-node :2 ,", "fault-free:1, faulty-node: 2"} {
		mix, err := ParseMix(in)
		if err != nil {
			t.Fatalf("ParseMix(%q): %v", in, err)
		}
		if len(mix) != 2 || mix["fault-free"] != 1 || mix["faulty-node"] != 2 {
			t.Fatalf("ParseMix(%q) = %v", in, mix)
		}
	}
	for _, bad := range []string{"", ",", "fault-free", "fault-free:x"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}
