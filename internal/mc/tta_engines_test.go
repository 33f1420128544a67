package mc_test

import (
	"context"
	"testing"

	"ttastartup/internal/core"
	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/bmc"
	"ttastartup/internal/mc/explicit"
	"ttastartup/internal/mc/ic3"
	"ttastartup/internal/mc/symbolic"
	"ttastartup/internal/tta/original"
	"ttastartup/internal/tta/startup"
)

// TestTTAEnginesAgree runs the shipped TTA models — both topologies, big
// bang on and off, safety and liveness lemmas — through all five engines on
// small configurations and demands consistent verdicts. On the bus topology
// every prover is exact: symbolic, explicit, IC3, and k-induction must
// return the same unbounded verdict, and every refutation must replay
// concretely, including the lasso back-edge on liveness counterexamples.
// The hub safety lemma is not k-inductive at small k and IC3 needs minutes
// to close it (DESIGN.md), so on the hub holds-case the SAT provers run
// depth/frame-capped and must merely not contradict the exact engines.
// Liveness on the SAT engines goes through the l2s product (internal/gcl/l2s):
// a Violated verdict there must come back as a concrete lasso on the SOURCE
// system, which is exactly what verifyTrace replays.
func TestTTAEnginesAgree(t *testing.T) {
	type ttaCase struct {
		name     string
		sys      *gcl.System
		prop     mc.Property
		holds    bool
		exactInd bool // demand an unbounded verdict from k-induction
		exactIC3 bool // demand an unbounded verdict from IC3
		slow     bool // skipped with -short
	}

	busModel := func(deg int) *original.Model {
		m, err := original.Build(original.Config{N: 3, FaultyNode: 1, FaultDegree: deg, DeltaInit: 2})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	bus1 := busModel(1)
	bus3 := busModel(3)

	hubOn := startup.DefaultConfig(3)
	hubOn.DeltaInit = 2
	hubOnModel, err := startup.Build(hubOn)
	if err != nil {
		t.Fatal(err)
	}
	hubOff := startup.DefaultConfig(3).WithFaultyHub(0)
	hubOff.DeltaInit = 2
	hubOff.DisableBigBang = true
	hubOffModel, err := startup.Build(hubOff)
	if err != nil {
		t.Fatal(err)
	}

	cases := []ttaCase{
		{name: "bus/deg1-safety", sys: bus1.Sys, prop: bus1.Safety(),
			holds: true, exactInd: true, exactIC3: true},
		{name: "bus/deg1-liveness", sys: bus1.Sys, prop: bus1.Liveness(),
			holds: true, exactInd: true, exactIC3: true},
		{name: "bus/deg3-safety", sys: bus3.Sys, prop: bus3.Safety(),
			holds: false, exactInd: true, exactIC3: true},
		{name: "bus/deg3-liveness", sys: bus3.Sys, prop: bus3.Liveness(),
			holds: false, exactInd: true, exactIC3: true},
		{name: "hub/big-bang-on-safety", sys: hubOnModel.Sys, prop: hubOnModel.Safety(),
			holds: true},
		// IC3 proves the hub liveness lemma on the l2s product in about a
		// minute (23 frames); k-induction does not close it by k=40, so the
		// induction leg runs capped and must merely not contradict.
		{name: "hub/big-bang-on-liveness", sys: hubOnModel.Sys, prop: hubOnModel.Liveness(),
			holds: true, exactIC3: true, slow: true},
		{name: "hub/big-bang-off-clique", sys: hubOffModel.Sys, prop: hubOffModel.Safety(),
			holds: false, exactInd: true, exactIC3: true, slow: true},
		{name: "hub/big-bang-off-clique-liveness", sys: hubOffModel.Sys, prop: hubOffModel.Liveness(),
			holds: false, exactInd: true, exactIC3: true, slow: true},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && (testing.Short() || raceEnabled) {
				t.Skip("IC3 needs tens of seconds on this configuration (minutes under the race detector)")
			}
			comp := tc.sys.Compile()
			depth := 20
			eventually := tc.prop.Kind == mc.Eventually

			var expRes *mc.Result
			if eventually {
				expRes, err = explicit.CheckEventuallyCtx(context.Background(), tc.sys, tc.prop, explicit.Options{})
			} else {
				expRes, err = explicit.CheckInvariantCtx(context.Background(), tc.sys, tc.prop, explicit.Options{})
			}
			if err != nil {
				t.Fatal(err)
			}
			eng, err := symbolic.New(comp, symbolic.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var symRes *mc.Result
			if eventually {
				symRes, err = eng.CheckEventuallyCtx(context.Background(), tc.prop)
			} else {
				symRes, err = eng.CheckInvariantCtx(context.Background(), tc.prop)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*mc.Result{expRes, symRes} {
				want := mc.Holds
				if !tc.holds {
					want = mc.Violated
				}
				if r.Verdict != want {
					t.Fatalf("[%s] verdict %v, want %v", r.Stats.Engine, r.Verdict, want)
				}
				if !tc.holds {
					verifyTrace(t, tc.sys, tc.prop, r.Trace)
				}
			}

			var bmcRes *mc.Result
			if eventually {
				bmcRes, err = bmc.CheckEventuallyRefuteCtx(context.Background(), comp, tc.prop, bmc.Options{MaxDepth: depth})
			} else {
				bmcRes, err = bmc.CheckInvariantCtx(context.Background(), comp, tc.prop, bmc.Options{MaxDepth: depth})
			}
			if err != nil {
				t.Fatal(err)
			}
			indOpts := bmc.InductionOptions{MaxK: depth, SimplePath: tc.exactInd}
			if !tc.exactInd {
				indOpts.MaxK = 5 // capped: agreement means "does not refute"
			}
			var indRes *mc.Result
			if eventually {
				indRes, err = core.Check(context.Background(), tc.sys, tc.prop, core.EngineInduction, core.Options{BMCDepth: indOpts.MaxK})
			} else {
				indRes, err = bmc.CheckInvariantInductionCtx(context.Background(), comp, tc.prop, indOpts)
			}
			if err != nil {
				t.Fatal(err)
			}
			icOpts := ic3.Options{}
			if !tc.exactIC3 {
				icOpts.MaxFrames = 5
			}
			var icRes *mc.Result
			if eventually {
				icRes, err = core.Check(context.Background(), tc.sys, tc.prop, core.EngineIC3, core.Options{IC3: icOpts})
			} else {
				icRes, err = ic3.CheckInvariantCtx(context.Background(), comp, tc.prop, icOpts)
			}
			if err != nil {
				t.Fatal(err)
			}

			for i, r := range []*mc.Result{bmcRes, indRes, icRes} {
				name := []string{"bmc", "induction", "ic3"}[i]
				t.Run(name, func(t *testing.T) {
					if tc.holds && r.Verdict == mc.Violated {
						t.Fatalf("[%s] refuted a lemma the exact engines prove", name)
					}
					if !tc.holds {
						if r.Verdict != mc.Violated {
							t.Errorf("[%s] verdict %v, want violated", name, r.Verdict)
							return
						}
						if eventually && r.Trace.LoopsTo < 0 {
							t.Fatalf("[%s] liveness refutation without a lasso back-edge", name)
						}
						verifyTrace(t, tc.sys, tc.prop, r.Trace)
					}
				})
			}
			if tc.holds && tc.exactInd {
				if indRes.Verdict != mc.Holds {
					t.Errorf("[induction] verdict %v, want an unbounded proof", indRes.Verdict)
				}
			}
			if tc.holds && tc.exactIC3 {
				if icRes.Verdict != mc.Holds {
					t.Errorf("[ic3] verdict %v, want an unbounded proof", icRes.Verdict)
				}
				if icRes.Stats.Iterations == 0 || icRes.Stats.SATQueries == 0 {
					t.Errorf("[ic3] missing frame/query stats: %+v", icRes.Stats)
				}
			}
		})
	}
}
