package mcfi

// The campaign runner: a share-nothing batch worker pool feeding a single
// in-order reducer.
//
// Each worker simulates one batch in isolation — scenario expansion is a
// pure function of (spec seed, index), so a batch's record depends on
// nothing but its index. The reducer consumes records strictly in batch
// order (out-of-order arrivals buffer until their turn), checkpoints each
// one, and folds it into the report. Because every cross-batch decision —
// global coverage freshness, corpus bucket admission, violation totals —
// is made only in the reducer and only in batch order, the final report is
// identical to a sequential run no matter how the pool schedules work.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"

	"ttastartup/internal/campaign"
	"ttastartup/internal/obs"
	"ttastartup/internal/tta/sim"
)

// RunOptions configures campaign execution (not results: everything here —
// workers, checkpointing, early stops — leaves the eventual complete
// report byte-identical).
type RunOptions struct {
	// Workers sizes the batch pool (<= 0: GOMAXPROCS).
	Workers int
	// Checkpoint is the JSONL checkpoint path ("" disables durability).
	Checkpoint string
	// Resume loads the checkpoint's intact prefix instead of truncating.
	Resume bool
	// StopAfterBatches pauses the campaign once that many total batches
	// are reduced (0: run to completion). Used with Resume to split a
	// campaign across invocations.
	StopAfterBatches int
	// BudgetSlots pauses the campaign once the reduced batches account
	// for at least this many simulated slots (0: unlimited). The check
	// runs in batch order, so the stopping point is deterministic.
	BudgetSlots int64
	// Scope receives metrics and trace spans.
	Scope obs.Scope
}

// Run executes (or resumes) the campaign described by sp and returns its
// report. A partial report (Completed false) is returned when ctx is
// cancelled after at least one batch, or when StopAfterBatches/BudgetSlots
// pause the campaign; resuming later from the same checkpoint yields a
// final report byte-identical to an uninterrupted run's.
func Run(ctx context.Context, sp Spec, opt RunOptions) (*Report, error) {
	sp = sp.Normalize()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	g, err := sp.GenParams()
	if err != nil {
		return nil, err
	}
	nBatches := sp.Batches()

	var store *Store
	if opt.Checkpoint != "" {
		store, err = OpenStore(opt.Checkpoint, sp, opt.Resume)
		if err != nil {
			return nil, err
		}
		defer store.Close()
	}

	red := newReducer(sp)
	done := 0
	if store != nil {
		for i := range store.Done {
			red.reduce(&store.Done[i])
		}
		done = len(store.Done)
	}

	limit := nBatches
	if opt.StopAfterBatches > 0 && opt.StopAfterBatches < limit {
		limit = opt.StopAfterBatches
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opt.Scope.Reg.Gauge(obs.MSimWorkers).Set(int64(workers))

	budgetHit := func() bool {
		return opt.BudgetSlots > 0 && red.totalSlots >= opt.BudgetSlots
	}

	if done < limit && !budgetHit() {
		span := opt.Scope.Trace.StartOn(0, obs.CatSim, "mcfi-campaign")
		span.Attr("digest", red.rep.Digest).Attr("batches", limit-done)

		wctx, cancel := context.WithCancel(ctx)
		results := make(chan BatchRecord, workers)
		poolErr := make(chan error, 1)
		go func() {
			poolErr <- campaign.ForEach(wctx, workers, limit-done, func(ctx context.Context, _, i int) error {
				rec, err := runBatch(sp, g, done+i)
				if err != nil {
					return err
				}
				select {
				case results <- rec:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			})
			close(results)
		}()

		// Reduce in batch order; buffer records that arrive early. Once the
		// budget pauses the campaign, later arrivals are discarded — which
		// batches they are depends on scheduling, so reducing them would
		// break determinism.
		pending := make(map[int]BatchRecord)
		next := done
		paused := false
		var reduceErr error
		for rec := range results {
			if reduceErr != nil || paused {
				continue // drain
			}
			pending[rec.Batch] = rec
			for {
				r, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				if store != nil {
					if err := store.Append(r); err != nil {
						reduceErr = err
						cancel()
						break
					}
				}
				red.reduce(&r)
				next++
				PublishBatch(opt.Scope, &r)
				if budgetHit() {
					paused = true
					cancel()
					break
				}
			}
		}
		err := <-poolErr
		cancel()
		span.Attr("reduced", next-done).End()
		if reduceErr != nil {
			return nil, reduceErr
		}
		if ctx.Err() != nil {
			// Caller cancellation: the checkpoint keeps what finished, but
			// surface the interruption rather than a partial report.
			return nil, ctx.Err()
		}
		// A cancellation we triggered ourselves (budget pause) is clean.
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
		done = next
	}

	rep := red.finish(done, done == nBatches)
	opt.Scope.Reg.Gauge(obs.MSimCorpusSize).Set(int64(len(rep.Corpus)))
	opt.Scope.Reg.Gauge(obs.MSimCoverStates).Set(int64(rep.CoverStates))
	opt.Scope.Reg.Gauge(obs.MSimCoverEdges).Set(int64(rep.CoverEdges))
	return rep, nil
}

// PublishBatch adds one executed batch's counters to scope: sim.runs,
// sim.slots, sim.unsynced, sim.violations (in-hypothesis runs that
// contradict a verified lemma, each counted once) and sim.near, plus one
// sim.batches.done. Run calls it per batch it reduces and the verification
// daemon per mcfi unit, so the counters mean the same in both.
func PublishBatch(scope obs.Scope, rec *BatchRecord) {
	reg := scope.Reg
	reg.Counter(obs.MSimBatches).Inc()
	reg.Counter(obs.MSimRuns).Add(int64(rec.Count))
	for _, ks := range rec.Kinds {
		reg.Counter(obs.MSimSlots).Add(ks.TotalSlots)
		reg.Counter(obs.MSimUnsynced).Add(int64(ks.Unsynced))
		reg.Counter(obs.MSimNear).Add(int64(ks.Near))
	}
	violations := 0
	for i := range rec.Candidates {
		if len(rec.Candidates[i].Violations) > 0 {
			violations++
		}
	}
	reg.Counter(obs.MSimViolations).Add(int64(violations))
}

// ExecuteBatch simulates one batch of the campaign described by sp: a pure
// function of (normalized spec, batch index), so any process — in
// particular a serve worker — can compute any batch independently and the
// records can be reduced elsewhere. b must be in [0, sp.Batches()).
func ExecuteBatch(sp Spec, b int) (BatchRecord, error) {
	sp = sp.Normalize()
	if err := sp.Validate(); err != nil {
		return BatchRecord{}, err
	}
	if b < 0 || b >= sp.Batches() {
		return BatchRecord{}, fmt.Errorf("mcfi: batch %d out of range [0,%d)", b, sp.Batches())
	}
	g, err := sp.GenParams()
	if err != nil {
		return BatchRecord{}, err
	}
	return runBatch(sp, g, b)
}

// ReduceRecords folds externally computed batch records into a campaign
// report. Records may arrive in any order; they are sorted and reduced
// strictly by batch index, so the result is byte-identical (via
// Report canonical encoding) to what Run would produce from the same
// batches. Completed is set when the records cover every batch of the
// spec exactly once, starting at 0.
func ReduceRecords(sp Spec, recs []BatchRecord) (*Report, error) {
	sp = sp.Normalize()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	sorted := make([]BatchRecord, len(recs))
	copy(sorted, recs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Batch < sorted[j].Batch })
	red := newReducer(sp)
	for i := range sorted {
		if sorted[i].Batch != i {
			return nil, fmt.Errorf("mcfi: reduce needs a contiguous batch prefix; got batch %d at position %d", sorted[i].Batch, i)
		}
		red.reduce(&sorted[i])
	}
	return red.finish(len(sorted), len(sorted) == sp.Batches()), nil
}

// runBatch simulates batch b: a pure function of (spec, batch index).
func runBatch(sp Spec, g sim.GenParams, b int) (BatchRecord, error) {
	first := uint64(b) * uint64(sp.Batch)
	count := min(sp.Batch, sp.Samples-b*sp.Batch)
	rec := BatchRecord{Batch: b, First: first, Count: count, Kinds: make(map[string]*KindStats)}
	states := make(map[uint64]struct{})
	edges := make(map[uint32]struct{})

	for k := first; k < first+uint64(count); k++ {
		s := sim.GenScenario(g, sp.Seed, k)
		rc := newRunCover(sp.N)
		out, err := s.Execute(func(c *sim.Cluster) { rc.observe(c, states) })
		if err != nil {
			return rec, fmt.Errorf("mcfi: scenario %d (%s): %w", k, s.Describe(), err)
		}

		kind := s.Kind.String()
		ks := rec.Kinds[kind]
		if ks == nil {
			ks = &KindStats{}
			rec.Kinds[kind] = ks
		}
		ks.Runs++
		ks.TotalSlots += int64(out.Slots)
		if out.Synced {
			ks.Synced++
			ks.TotalStartup += int64(out.Startup)
			ks.WorstStartup = max(ks.WorstStartup, out.Startup)
		} else {
			ks.Unsynced++
		}
		if !out.Agreement {
			ks.Disagreements++
		}
		if out.Synced && out.Startup > sp.Bound() {
			ks.OverBound++
		}
		violations, exceeds, near := classify(sp, s, out)
		if near {
			ks.Near++
		}

		// Batch-locally fresh edges make the run a coverage candidate; the
		// reducer re-checks freshness against the campaign-global set.
		var fresh []uint32
		for e := range rc.edges {
			if _, seen := edges[e]; !seen {
				fresh = append(fresh, e)
				edges[e] = struct{}{}
			}
		}
		if len(violations)+len(exceeds) > 0 || near || len(fresh) > 0 {
			sort.Slice(fresh, func(i, j int) bool { return fresh[i] < fresh[j] })
			rec.Candidates = append(rec.Candidates, Candidate{
				Index:      k,
				Seed:       s.Seed,
				Kind:       kind,
				Violations: violations,
				Exceeds:    exceeds,
				Near:       near,
				Startup:    out.Startup,
				Slots:      out.Slots,
				Edges:      fresh,
				Desc:       s.Describe(),
			})
		}
	}

	rec.States = make([]uint64, 0, len(states))
	for code := range states {
		rec.States = append(rec.States, code)
	}
	sort.Slice(rec.States, func(i, j int) bool { return rec.States[i] < rec.States[j] })
	rec.Edges = make([]uint32, 0, len(edges))
	for e := range edges {
		rec.Edges = append(rec.Edges, e)
	}
	sort.Slice(rec.Edges, func(i, j int) bool { return rec.Edges[i] < rec.Edges[j] })
	return rec, nil
}

// reducer folds batch records — strictly in batch order — into the
// campaign report.
type reducer struct {
	sp         Spec
	rep        *Report
	states     map[uint64]struct{}
	edges      map[uint32]struct{}
	buckets    map[string]int
	samples    int
	totalSlots int64
}

func newReducer(sp Spec) *reducer {
	return &reducer{
		sp: sp,
		rep: &Report{
			Spec:      sp,
			Digest:    sp.Digest(),
			Bound:     sp.Bound(),
			EdgeSpace: EdgeSpace(sp.N),
			Kinds:     make(map[string]*KindStats),
			Corpus:    []CorpusEntry{},
		},
		states:  make(map[uint64]struct{}),
		edges:   make(map[uint32]struct{}),
		buckets: make(map[string]int),
	}
}

func (rd *reducer) reduce(rec *BatchRecord) {
	for kind, ks := range rec.Kinds {
		agg := rd.rep.Kinds[kind]
		if agg == nil {
			agg = &KindStats{}
			rd.rep.Kinds[kind] = agg
		}
		agg.add(ks)
		rd.totalSlots += ks.TotalSlots
	}
	rd.samples += rec.Count
	for _, code := range rec.States {
		rd.states[code] = struct{}{}
	}

	// Candidates are in index order; coverage freshness and bucket
	// admission are evaluated against state accumulated so far, exactly as
	// a sequential campaign would.
	for _, cand := range rec.Candidates {
		var fresh []uint32
		for _, e := range cand.Edges {
			if _, seen := rd.edges[e]; !seen {
				fresh = append(fresh, e)
				rd.edges[e] = struct{}{}
			}
		}
		if len(cand.Violations) > 0 {
			rd.rep.Violations++
		}
		if len(cand.Exceeds) > 0 {
			rd.rep.Exceedances++
		}
		if cand.Near {
			rd.rep.Near++
		}

		reasons := append(append([]string{}, cand.Violations...), cand.Exceeds...)
		if cand.Near {
			reasons = append(reasons, ReasonNear)
		}
		admit := false
		for _, r := range reasons {
			bucket := cand.Kind + "/" + r
			if rd.buckets[bucket] < rd.sp.CorpusPerBucket {
				admit = true
			}
			rd.buckets[bucket]++
		}
		if len(fresh) > 0 {
			// The transition alphabet is finite and small, so coverage
			// entries are self-capping: at most one per edge.
			reasons = append(reasons, ReasonCoverage)
			admit = true
		}
		if !admit {
			continue
		}
		rd.rep.Corpus = append(rd.rep.Corpus, CorpusEntry{
			Index:     cand.Index,
			Seed:      cand.Seed,
			Kind:      cand.Kind,
			Reasons:   reasons,
			Violation: len(cand.Violations) > 0,
			Startup:   cand.Startup,
			Slots:     cand.Slots,
			NewEdges:  len(fresh),
			Desc:      cand.Desc,
		})
	}

	// Safety net: batch edge unions also cover any edge a candidate list
	// somehow missed.
	for _, e := range rec.Edges {
		rd.edges[e] = struct{}{}
	}
}

func (rd *reducer) finish(batches int, completed bool) *Report {
	rd.rep.Samples = rd.samples
	rd.rep.Batches = batches
	rd.rep.Completed = completed
	rd.rep.CoverStates = len(rd.states)
	rd.rep.CoverEdges = len(rd.edges)
	rd.rep.Visited = rd.states
	return rd.rep
}
