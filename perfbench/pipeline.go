package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"ttastartup/internal/campaign"
	"ttastartup/internal/core"
	"ttastartup/internal/gcl"
	"ttastartup/internal/gcl/l2s"
	"ttastartup/internal/gcl/opt"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/bmc"
	"ttastartup/internal/mc/ic3"
	"ttastartup/internal/mc/symbolic"
	"ttastartup/internal/obs"
	"ttastartup/internal/tta"
	"ttastartup/internal/tta/original"
	"ttastartup/internal/tta/startup"
)

// The traced run calls each layer of a verification unit itself, in the
// order campaign.RunJobs reaches them through core.Suite (build, optimize,
// compile, engine, lift), so every layer gets its own span. Each unit must
// reproduce the untraced unit's verdict, counterexample digest and
// counters exactly; the expected tables check that.

// unitModel is one unit's source model and property.
type unitModel struct {
	sys   *gcl.System
	prop  mc.Property
	depth int // the SAT engines' default bound, 2·w_sup
}

// buildUnit builds a unit's model the way the campaign does.
func buildUnit(j campaign.Job) (unitModel, error) {
	switch j.Topology {
	case campaign.TopologyHub:
		m, err := startup.Build(campaign.HubConfig(j))
		if err != nil {
			return unitModel{}, err
		}
		lemmas, err := core.ParseLemmas(j.Lemma)
		if err != nil || len(lemmas) != 1 {
			return unitModel{}, fmt.Errorf("bad lemma %q", j.Lemma)
		}
		prop, err := (&core.Suite{Cfg: m.Cfg, Model: m}).Property(lemmas[0])
		return unitModel{m.Sys, prop, 2 * m.P.WorstCaseStartup()}, err
	case campaign.TopologyBus:
		m, err := original.Build(campaign.BusConfig(j))
		if err != nil {
			return unitModel{}, err
		}
		u := unitModel{sys: m.Sys, depth: 2 * (tta.Params{N: j.N}).WorstCaseStartup()}
		switch j.Lemma {
		case "safety":
			u.prop = m.Safety()
		case "liveness":
			u.prop = m.Liveness()
		default:
			return unitModel{}, fmt.Errorf("bus topology has no lemma %q", j.Lemma)
		}
		return u, nil
	}
	return unitModel{}, fmt.Errorf("unknown topology %q", j.Topology)
}

// tracedUnit checks one unit with a span around every layer call. Spans
// of one unit carry its index as "unit". Only the symbolic engine gets
// reg, for the BDD cache and GC counters.
func tracedUnit(ctx context.Context, tr *obs.Tracer, idx int, j campaign.Job, reg *obs.Registry) (outcome, mc.Stats, error) {
	root := tr.Start("unit", j.ID()).Attr("unit", idx)
	defer root.End()
	layer := func(name string, fn func() error) error {
		sp := root.Start("layer", name).Attr("unit", idx)
		defer sp.End()
		return fn()
	}

	var (
		u    unitModel
		oo   *opt.Optimized
		prop mc.Property
		comp *gcl.Compiled
		res  *mc.Result
		err  error
	)
	if err := layer("tta.build", func() error { u, err = buildUnit(j); return err }); err != nil {
		return outcome{}, mc.Stats{}, err
	}
	layer("gcl.digest", func() error { u.sys.Digest(); return nil })
	if err := layer("opt", func() error { oo, prop, err = core.OptimizeProp(u.sys, u.prop); return err }); err != nil {
		return outcome{}, mc.Stats{}, err
	}
	compile := func(sys *gcl.System) { layer("gcl.compile", func() error { comp = sys.Compile(); return nil }) }
	eventually := prop.Kind == mc.Eventually

	switch j.Engine {
	case "symbolic":
		compile(oo.Sys)
		var eng *symbolic.Engine
		err = layer("symbolic.build", func() error {
			eng, err = symbolic.New(comp, symbolic.Options{Obs: obs.Scope{Reg: reg}})
			return err
		})
		if err == nil {
			err = layer("symbolic.check", func() error {
				if eventually {
					res, err = eng.CheckEventuallyCtx(ctx, prop)
				} else {
					res, err = eng.CheckInvariantCtx(ctx, prop)
				}
				return err
			})
		}
	case "bmc":
		compile(oo.Sys)
		err = layer("bmc.check", func() error {
			o := bmc.Options{MaxDepth: u.depth}
			if eventually {
				res, err = bmc.CheckEventuallyRefuteCtx(ctx, comp, prop, o)
			} else {
				res, err = bmc.CheckInvariantCtx(ctx, comp, prop, o)
			}
			return err
		})
	case "induction", "ic3":
		// Eventualities go through the liveness-to-safety product, as
		// bmc.CheckEventuallyInductionCtx and ic3.CheckEventuallyCtx do.
		check, sys := prop, oo.Sys
		var prod *l2s.Product
		if eventually {
			if err := layer("l2s", func() error { prod, err = l2s.Transform(oo.Sys, prop.Pred); return err }); err != nil {
				return outcome{}, mc.Stats{}, err
			}
			check = mc.Property{Name: prop.Name, Kind: mc.Invariant, Pred: prod.Safe}
			sys = prod.Sys
		}
		compile(sys)
		err = layer(j.Engine+".check", func() error {
			if j.Engine == "ic3" {
				res, err = ic3.CheckInvariantCtx(ctx, comp, check, ic3.Options{})
			} else {
				res, err = bmc.CheckInvariantInductionCtx(ctx, comp, check, bmc.InductionOptions{MaxK: u.depth, SimplePath: eventually})
			}
			return err
		})
		if err == nil && eventually {
			res.Property = prop
			if res.Verdict == mc.Violated {
				err = layer("l2s", func() error {
					states, loopsTo, perr := prod.ProjectLasso(res.Trace.States)
					res.Trace = &mc.Trace{States: states, LoopsTo: loopsTo}
					return perr
				})
			}
		}
	default:
		err = fmt.Errorf("unknown engine %q", j.Engine)
	}
	if err != nil {
		return outcome{}, mc.Stats{}, err
	}

	var cex string
	err = layer("core.finish", func() error {
		if err := core.FinishOpt(res, oo, obs.Scope{}); err != nil {
			return err
		}
		cex = cexDigest(u.sys, res.Trace)
		return nil
	})
	return resultOutcome(j.Engine, res, cex), res.Stats, err
}

// cexDigest is the campaign record's counterexample digest: a hash of
// the trace's state sequence over the source model plus the loop-back
// index.
func cexDigest(sys *gcl.System, t *mc.Trace) string {
	if t == nil {
		return ""
	}
	h := sha256.New()
	vars := sys.StateVars()
	for _, st := range t.States {
		io.WriteString(h, gcl.Key(st, vars))
		h.Write([]byte{0})
	}
	fmt.Fprintf(h, "loop=%d", t.LoopsTo)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// engineSums totals the engine counters of a traced pass.
type engineSums struct {
	bitsSaved, peakNodes, iterations            int
	conflicts, decisions, propagations, queries int
	frames, obligations                         int
}

func (s *engineSums) add(engine string, st mc.Stats) {
	s.bitsSaved += st.OptBitsSaved
	s.peakNodes = max(s.peakNodes, st.PeakNodes)
	s.conflicts += st.Conflicts
	s.decisions += st.Decisions
	s.propagations += st.Propagations
	s.queries += st.SATQueries
	switch engine {
	case "symbolic":
		s.iterations += st.Iterations
	case "ic3":
		s.frames += st.Iterations
		s.obligations += st.Obligations
	}
}

func (s *engineSums) report(b *bench, reg *obs.Registry) {
	b.set("opt.bits_saved", float64(s.bitsSaved))
	b.set("bdd.peak_nodes", float64(s.peakNodes))
	b.set("symbolic.iterations", float64(s.iterations))
	b.set("sat.conflicts", float64(s.conflicts))
	b.set("sat.decisions", float64(s.decisions))
	b.set("sat.propagations", float64(s.propagations))
	b.set("sat.queries", float64(s.queries))
	b.set("ic3.frames", float64(s.frames))
	b.set("ic3.obligations", float64(s.obligations))
	hits := reg.Counter(obs.MBDDCacheHits).Value()
	misses := reg.Counter(obs.MBDDCacheMisses).Value()
	if hits+misses > 0 {
		b.set("bdd.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	b.set("bdd.gc_count", float64(reg.Counter(obs.MBDDGCs).Value()))
	b.set("bdd.gc_pause_ms_max", float64(reg.Histogram(obs.MBDDGCPauseUS).Max())/1000)
}

// spanMetrics turns the recorded spans into the layer metrics. A root
// span ("unit" for a verification unit, "job" for a serve request) owns
// the "layer" spans with the same unit index; a layer's self time is its
// duration minus its children's, and layer spans have none.
//
// untraced, if set, holds each verification unit's time in the untraced
// pass, by unit index. The part of that time no named layer covers is the
// unit's unattributed time, so it includes what the campaign runner and
// core do around the layers; the traced units' summed wall against the
// untraced one is the tracing overhead. Without it (serve-mixed), a job
// root's self time is its unattributed time.
func (b *bench) spanMetrics(untraced []float64) {
	type root struct {
		name              string
		dur, ref, covered float64
	}
	roots := map[any]*root{}
	layerMS := map[string]float64{}
	events := b.tracer.Export(0)
	for _, ev := range events {
		if ev.Cat != "unit" && ev.Cat != "job" {
			continue
		}
		r := &root{name: ev.Name, dur: float64(ev.Dur) / 1000}
		r.ref = r.dur
		if i, ok := ev.Args["unit"].(int); ok && ev.Cat == "unit" && i < len(untraced) {
			r.ref = untraced[i]
		}
		roots[ev.Args["unit"]] = r
	}
	for _, ev := range events {
		if ev.Cat != "layer" {
			continue
		}
		ms := float64(ev.Dur) / 1000
		layerMS[ev.Name] += ms
		if r := roots[ev.Args["unit"]]; r != nil {
			r.covered += ms
		}
	}
	var wall, ref, unattributed float64
	var worst *root
	for _, r := range roots {
		wall += r.dur
		ref += r.ref
		unattributed += max(r.ref-r.covered, 0)
		if worst == nil || r.covered/r.ref < worst.covered/worst.ref {
			worst = r
		}
	}
	b.set("unit.wall_ms", wall)
	b.set("trace.unattributed_ms", unattributed)
	if untraced != nil && worst != nil {
		cover := 100 * worst.covered / worst.ref
		b.set("trace.coverage_min_pct", cover)
		b.set("trace.overhead_pct", (wall/ref-1)*100)
		fmt.Fprintf(os.Stderr, "perfbench: lowest layer coverage %.1f%% (%.1f of %.1f untraced ms) on %s\n",
			cover, worst.covered, worst.ref, worst.name)
	}
	for _, l := range layers {
		b.set(l.ms, layerMS[l.span])
		if wall > 0 {
			b.set(l.share, 100*layerMS[l.span]/wall)
		}
	}
	if sat := layerMS["bmc.check"] + layerMS["induction.check"] + layerMS["ic3.check"]; sat > 0 {
		b.set("sat.props_per_ms", b.metrics["sat.propagations"]/sat)
	}
}
