package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ttastartup/internal/campaign"
	"ttastartup/internal/obs"
	"ttastartup/internal/serve"
	"ttastartup/internal/sim/mcfi"
)

// serve-mixed drives the verification daemon the way `ttactl submit
// -wait` does: one client submits a job and waits for its report before
// submitting the next (a closed loop). The traffic mix is an assumption,
// not a measured trace; README.md states it.

// Request categories.
const (
	catCold     = "cold"      // a new spec: every unit executes
	catOverlap  = "overlap"   // extends an earlier spec: half its units are cached
	catWarm     = "warm"      // an earlier spec verbatim: every unit is cached
	catMCFICold = "mcfi-cold" // a Monte-Carlo campaign submitted fresh
	catMCFIWarm = "mcfi-warm" // the same campaign again
)

const (
	serveWorkers  = 2
	serveRounds   = 4
	serveBMCDepth = 6 // keeps BMC units at 50-100 ms
	// budgetMS is every stream job's engine budget: an hour, which no
	// unit comes near. Each round adds its index, so a round's cache keys
	// are new to the daemon while the checks stay the same.
	budgetMS = 3_600_000
)

var serveDeltaInits = []int{2, 3, 4}

// request is one job of the stream and what the daemon should answer.
type request struct {
	Cat    string
	Req    serve.SubmitRequest
	Units  int // units the spec expands to
	Cached int // units the daemon should answer from its cache
}

func verifyRequest(di int, degrees []int, lemmas, engines []string, round int) serve.SubmitRequest {
	return serve.SubmitRequest{
		Kind: serve.KindVerify,
		Verify: &campaign.Spec{
			Ns: []int{3}, Degrees: degrees, Lemmas: lemmas, Engines: engines, DeltaInit: di,
		},
		Config: serve.RunConfig{TimeoutMS: budgetMS + int64(round), BMCDepth: serveBMCDepth},
	}
}

func mcfiRequest(seed int64) serve.SubmitRequest {
	return serve.SubmitRequest{Kind: serve.KindMCFI, MCFI: &mcfi.Spec{N: 4, Samples: 2000, Batch: 500, Seed: seed}}
}

var (
	both      = []string{"symbolic", "bmc"}
	mcfiSeeds = []int64{1, 2, 3}
	// primingJob spawns both workers during set-up; its round -1 keeps
	// its cache keys out of the stream's.
	primingJob = verifyRequest(2, []int{1}, []string{"safety"}, both, -1)
)

// coldCatalogue is every round's cold jobs: per power-on window, per
// degree, {safety, liveness} × both engines and timeliness × both engines,
// plus safety_2 on each engine; and the Monte-Carlo campaigns. The
// catalogue partitions the units, so no two cold jobs share a cache key.
func coldCatalogue() []request {
	var out []request
	for r := 0; r < serveRounds; r++ {
		for _, di := range serveDeltaInits {
			for d := 1; d <= 3; d++ {
				out = append(out,
					request{catCold, verifyRequest(di, []int{d}, []string{"safety", "liveness"}, both, r), 4, 0},
					request{catCold, verifyRequest(di, []int{d}, []string{"timeliness"}, both, r), 2, 0})
			}
			for _, e := range both {
				out = append(out, request{catCold, verifyRequest(di, []int{1}, []string{"safety_2"}, []string{e}, r), 1, 0})
			}
		}
	}
	for _, s := range mcfiSeeds {
		out = append(out, request{catMCFICold, mcfiRequest(s), 4, 0})
	}
	return out
}

// buildStream is the seed's job stream. The seed shuffles the cold
// catalogue, picks which timeliness job each overlapping spec extends
// (one per power-on window and round, adding degree 4, so its other half
// is new to the daemon), and places one verbatim resubmission of every
// job at a random later point. Every seed yields the same number of jobs
// and units per category.
func buildStream(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	cold := coldCatalogue()
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })

	overlaps := map[string]request{} // base spec digest → overlapping spec
	for r := 0; r < serveRounds; r++ {
		for _, di := range serveDeltaInits {
			d := 1 + rng.Intn(3)
			base := verifyRequest(di, []int{d}, []string{"timeliness"}, both, r)
			overlaps[base.Digest()] = request{catOverlap, verifyRequest(di, []int{d, 4}, []string{"timeliness"}, both, r), 4, 2}
		}
	}

	var stream, pending []request
	emit := func(q request) {
		stream = append(stream, q)
		again := q
		again.Cat, again.Cached = catWarm, q.Units
		if q.Cat == catMCFICold {
			again.Cat = catMCFIWarm
		}
		pending = append(pending, again)
		if ov, ok := overlaps[q.Req.Digest()]; ok && q.Cat == catCold {
			pending = append(pending, ov)
		}
	}
	drainOne := func() {
		i := rng.Intn(len(pending))
		q := pending[i]
		pending[i] = pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		if q.Cat == catOverlap {
			emit(q)
		} else {
			stream = append(stream, q)
		}
	}
	for _, q := range cold {
		emit(q)
		for len(pending) > 0 && rng.Intn(2) == 0 {
			drainOne()
		}
	}
	for len(pending) > 0 {
		drainOne()
	}
	return stream
}

// served is what the client observed for one job.
type served struct {
	q       request
	st      serve.JobStatus
	submit  float64 // ms in Daemon.Submit
	latency float64 // ms from submit to the finished job's status
}

func runServe(ctx context.Context, b *bench) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	workerCmd := []string{exe, "-serve-worker"}
	var d *serve.Daemon
	defer func() {
		if d != nil {
			d.Close()
		}
	}()
	n := 0
	start := func() error {
		if d != nil {
			d.Close()
		}
		n++
		d, err = startDaemon(ctx, filepath.Join(b.dir, fmt.Sprintf("daemon-%d", n)), workerCmd)
		return err
	}
	setup, err := medianSetup(start)
	if err != nil {
		return err
	}
	b.set("setup_s", setup)

	stream := buildStream(b.cfg.seed)
	runtime.GC()
	jobs, wall, err := runStream(ctx, d, stream, nil)
	if err != nil {
		return err
	}
	b.checkServe(d, jobs)
	units := 0
	var cold, warm []float64
	for _, j := range jobs {
		units += j.st.Total
		if j.st.Executed > 0 {
			cold = append(cold, j.latency)
		} else {
			warm = append(warm, j.latency)
		}
	}
	// Warm latency is a per-layer figure, the verdict cache's read path,
	// taken from the untraced stream: README.md says why it is not gated.
	b.latencies("serve.warm", warm)
	if !b.cfg.trace {
		b.set("units_per_s", float64(units)/wall.Seconds())
		b.latencies("cold", cold)
		err := d.Close() // reap the workers so RUSAGE_CHILDREN covers them
		d = nil
		b.set("peak_rss_mb", peakRSSMB())
		return err
	}

	// Traced: the same stream on a fresh daemon, with spans around every
	// call, and the model build and digest that Submit performs per unit
	// timed by calling them directly.
	if err := start(); err != nil {
		return err
	}
	runtime.GC()
	tjobs, twall, err := runStream(ctx, d, stream, b.tracer)
	if err != nil {
		return err
	}
	b.checkServe(d, tjobs)
	b.set("trace.overhead_pct", (twall.Seconds()/wall.Seconds()-1)*100)
	b.spanMetrics(nil)
	return b.serveLayers(d, tjobs)
}

// startDaemon opens a daemon on a fresh directory with re-exec'd worker
// processes and waits for a two-unit priming job, which spawns both, and
// for the job's cache entries, so the daemon's cache holds exactly the
// units it has executed.
func startDaemon(ctx context.Context, dir string, workerCmd []string) (*serve.Daemon, error) {
	d, err := serve.New(serve.Config{Dir: dir, Workers: serveWorkers, WorkerCmd: workerCmd})
	if err != nil {
		return nil, err
	}
	st, err := d.Submit(primingJob)
	if err == nil {
		st, err = d.Wait(ctx, st.ID)
	}
	if err == nil && (st.State != "done" || st.Failed > 0) {
		err = fmt.Errorf("priming job ended %s with %d failed units", st.State, st.Failed)
	}
	if err == nil {
		err = awaitCache(d, st.Executed)
	}
	if err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// runStream submits each job and waits for it before the next. With a
// tracer, each job gets a root span with the submit and the wait as
// layers, after the per-unit model build and digest have been timed; the
// returned wall leaves out that probing, which repeats work Submit does.
func runStream(ctx context.Context, d *serve.Daemon, stream []request, tr *obs.Tracer) ([]served, time.Duration, error) {
	out := make([]served, 0, len(stream))
	cacheWant, err := d.CacheLen()
	if err != nil {
		return nil, 0, err
	}
	begin := time.Now()
	var probing time.Duration
	for i, q := range stream {
		if q.Cached > 0 {
			// The daemon writes a unit's cache entry just after the job
			// reports done, so a resubmission that follows at once could
			// miss it. Wait until every executed unit is cached, so the
			// hit count is the same on every run.
			if err := awaitCache(d, cacheWant); err != nil {
				return nil, 0, err
			}
		}
		root := tr.Start("job", q.Cat).Attr("unit", i)
		if tr != nil {
			t := time.Now()
			if err := probeModels(root, i, q.Req); err != nil {
				return nil, 0, err
			}
			probing += time.Since(t)
		}
		start := time.Now()
		sp := root.Start("layer", "serve.submit").Attr("unit", i)
		st, err := d.Submit(q.Req)
		submit := msSince(start)
		sp.End()
		if err != nil {
			return nil, 0, fmt.Errorf("submit: %w", err)
		}
		sp = root.Start("layer", "serve.wait").Attr("unit", i)
		st, err = d.Wait(ctx, st.ID)
		latency := msSince(start)
		sp.End()
		root.End()
		if err != nil {
			return nil, 0, fmt.Errorf("wait: %w", err)
		}
		out = append(out, served{q: q, st: st, submit: submit, latency: latency})
		cacheWant += st.Executed
	}
	return out, time.Since(begin) - probing, nil
}

// awaitCache waits up to five seconds for the verdict cache to hold want
// entries. A unit whose record is not cacheable never arrives; the
// resubmission that needed it then fails the stream's checks.
func awaitCache(d *serve.Daemon, want int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, err := d.CacheLen()
		if err != nil || n >= want || time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// probeModels builds and digests each verify unit's model, as Submit
// does to form the cache keys, inside tta.build and gcl.digest spans.
func probeModels(root *obs.Span, i int, req serve.SubmitRequest) error {
	if req.Verify == nil {
		return nil
	}
	jobs, err := req.Verify.Jobs()
	if err != nil {
		return err
	}
	for _, j := range jobs {
		sp := root.Start("layer", "tta.build").Attr("unit", i)
		u, err := buildUnit(j)
		sp.End()
		if err != nil {
			return err
		}
		sp = root.Start("layer", "gcl.digest").Attr("unit", i)
		u.sys.Digest()
		sp.End()
	}
	return nil
}

// checkServe checks every job's status against the stream's plan, every
// verify record against the expected table, that each Monte-Carlo report
// repeats byte for byte on resubmission, and the stream-level counters.
func (b *bench) checkServe(d *serve.Daemon, jobs []served) {
	c := b.check
	units, cached := 0, 0
	mcfiReports := map[int64][]byte{}
	for _, j := range jobs {
		st := j.st
		units += st.Total
		cached += st.Cached
		if st.State != "done" || st.Failed > 0 || st.Total != j.q.Units || st.Cached != j.q.Cached {
			c.fail("job %s (%s): %s, %d/%d units cached, %d failed; want %d/%d cached",
				st.ID, j.q.Cat, st.State, st.Cached, st.Total, st.Failed, j.q.Cached, j.q.Units)
		}
		data, err := d.ReportJSON(st.ID)
		if err != nil {
			c.failUnit("job %s: %v", st.ID, err)
			continue
		}
		if mc := j.q.Req.MCFI; mc != nil {
			c.attempted += st.Total
			if prev, ok := mcfiReports[mc.Seed]; ok && string(prev) != string(data) {
				c.fail("mcfi seed %d: the resubmission's report differs", mc.Seed)
			}
			mcfiReports[mc.Seed] = data
			continue
		}
		var rep struct{ Records []campaign.Record }
		if err := json.Unmarshal(data, &rep); err != nil {
			c.failUnit("job %s report: %v", st.ID, err)
			continue
		}
		for _, rec := range rep.Records {
			c.unit(rec.Job.ID(), recordOutcome(rec))
		}
		if len(rep.Records) != st.Total {
			c.fail("job %s: %d records for %d units", st.ID, len(rep.Records), st.Total)
		}
	}
	h := sha256.New()
	for _, s := range mcfiSeeds {
		h.Write(mcfiReports[s])
	}
	digest := hex.EncodeToString(h.Sum(nil))[:12]
	ratio := float64(cached) / float64(units)
	c.mismatch("mcfi.digest", digest, c.want.MCFIDigest, func() { c.want.MCFIDigest = digest })
	c.mismatch("serve.hit_ratio", fmt.Sprintf("%.6f", ratio), fmt.Sprintf("%.6f", c.want.HitRatio), func() { c.want.HitRatio = ratio })
	b.set("serve.hit_ratio", ratio)
}

// serveLayers reads the per-unit accounting the workers shipped back and
// derives the serve layer metrics of the traced stream.
func (b *bench) serveLayers(d *serve.Daemon, jobs []served) error {
	var warmMS, overhead, execMS, cpuMS, mcfiMS float64
	var warmUnits, execUnits, samples int
	for _, j := range jobs {
		infos, err := d.Units(j.st.ID)
		if err != nil {
			return err
		}
		slots := map[int]float64{} // summed unit wall per worker slot
		for _, u := range infos {
			if u.Cached || u.Stats == nil {
				continue
			}
			slots[u.Worker] += float64(u.Stats.WallMS)
			cpuMS += float64(u.Stats.CPUMS)
			if j.q.Req.MCFI != nil {
				mcfiMS += float64(u.Stats.WallMS)
			} else {
				execMS += float64(u.Stats.WallMS)
				execUnits++
			}
		}
		if j.st.Executed == 0 {
			warmMS += j.latency
			warmUnits += j.st.Total
			continue
		}
		busiest := 0.0
		for _, ms := range slots {
			busiest = max(busiest, ms)
		}
		overhead += j.latency - j.submit - busiest
		if j.q.Req.MCFI != nil {
			samples += j.q.Req.MCFI.Samples
		}
	}
	b.set("serve.warm_ms_per_unit", warmMS/float64(max(warmUnits, 1)))
	b.set("serve.exec_ms_per_unit", execMS/float64(max(execUnits, 1)))
	b.set("serve.overhead_ms", overhead)
	b.set("serve.worker_cpu_ms", cpuMS)
	if mcfiMS > 0 {
		b.set("mcfi.runs_per_s", float64(samples)/(mcfiMS/1000))
	}
	return nil
}
