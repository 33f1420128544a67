package explicit

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
)

// CheckCTLCtx evaluates a CTL formula over the explored state graph by
// explicit fixpoint iteration — the reference implementation the symbolic
// evaluator is cross-checked against. Cancellation of ctx reaches the
// state-graph exploration.
func CheckCTLCtx(ctx context.Context, sys *gcl.System, name string, f *mc.CTLFormula, opts Options) (*mc.Result, error) {
	start := time.Now()
	opts.StoreEdges = true
	g, err := ExploreCtx(ctx, sys, opts)
	if err != nil {
		return nil, err
	}
	sat := evalCTL(g, f)

	prop := mc.Property{Name: name, Kind: mc.CTL, CTL: f}
	res := &mc.Result{
		Property: prop,
		Verdict:  mc.Holds,
		Stats: mc.Stats{
			Engine:    EngineName,
			Duration:  time.Since(start),
			Visited:   g.NumStates(),
			Reachable: big.NewInt(int64(g.NumStates())),
		},
	}
	for i := 0; i < g.InitCount; i++ {
		if !sat[i] {
			res.Verdict = mc.Violated
			res.Trace = mc.NewTrace([]gcl.State{g.States[i]})
			break
		}
	}
	return res, nil
}

// evalCTL returns, per state index, whether the formula holds.
func evalCTL(g *Graph, f *mc.CTLFormula) []bool {
	n := len(g.States)
	out := make([]bool, n)

	exInto := func(set []bool) []bool {
		r := make([]bool, n)
		for i := range n {
			for _, s := range g.Edges[i] {
				if set[s] {
					r[i] = true
					break
				}
			}
		}
		return r
	}
	lfp := func(seed []bool, step func([]bool) []bool) []bool {
		cur := seed
		for {
			next := step(cur)
			changed := false
			for i := range n {
				next[i] = next[i] || cur[i]
				if next[i] != cur[i] {
					changed = true
				}
			}
			if !changed {
				return cur
			}
			cur = next
		}
	}

	switch f.Op {
	case mc.CTLAtomOp:
		for i, st := range g.States {
			out[i] = gcl.Holds(f.Pred, st)
		}
	case mc.CTLNotOp:
		l := evalCTL(g, f.L)
		for i := range n {
			out[i] = !l[i]
		}
	case mc.CTLAndOp:
		l, r := evalCTL(g, f.L), evalCTL(g, f.R)
		for i := range n {
			out[i] = l[i] && r[i]
		}
	case mc.CTLOrOp:
		l, r := evalCTL(g, f.L), evalCTL(g, f.R)
		for i := range n {
			out[i] = l[i] || r[i]
		}
	case mc.CTLEXOp:
		out = exInto(evalCTL(g, f.L))
	case mc.CTLEFOp:
		out = lfp(evalCTL(g, f.L), exInto)
	case mc.CTLEGOp:
		// νZ. f ∧ EX Z: iteratively remove states with no successor in Z.
		out = evalCTL(g, f.L)
		for changed := true; changed; {
			changed = false
			for i := range n {
				if !out[i] {
					continue
				}
				ok := false
				for _, s := range g.Edges[i] {
					if out[s] {
						ok = true
						break
					}
				}
				if !ok {
					out[i] = false
					changed = true
				}
			}
		}
	case mc.CTLEUOp:
		l, r := evalCTL(g, f.L), evalCTL(g, f.R)
		out = lfp(r, func(cur []bool) []bool {
			nxt := exInto(cur)
			for i := range n {
				nxt[i] = nxt[i] && l[i]
			}
			return nxt
		})
	case mc.CTLAXOp:
		l := evalCTL(g, f.L)
		for i := range n {
			out[i] = true
			for _, s := range g.Edges[i] {
				if !l[s] {
					out[i] = false
					break
				}
			}
		}
	case mc.CTLAFOp:
		eg := evalCTL(g, mc.CTLEG(mc.CTLNot(f.L)))
		for i := range n {
			out[i] = !eg[i]
		}
	case mc.CTLAGOp:
		ef := evalCTL(g, mc.CTLEF(mc.CTLNot(f.L)))
		for i := range n {
			out[i] = !ef[i]
		}
	default:
		panic(fmt.Sprintf("explicit: unknown CTL operator %d", int(f.Op)))
	}
	return out
}
