package mc_test

import (
	"context"
	"fmt"
	"testing"

	"ttastartup/internal/bdd"
	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/symbolic"
	"ttastartup/internal/tta/original"
	"ttastartup/internal/tta/startup"
)

// TestReorderVerdictMatrix checks that dynamic variable reordering is
// observationally invisible: over the shipped model matrix (both
// topologies, big bang on and off, fault degrees 1-3, safety and
// liveness), the symbolic engine must return the identical verdict,
// reachable-state count, and counterexample length with reordering off
// and on. The reorder-on runs use an aggressively low trigger threshold
// so sifting fires many times even on these small configurations.
func TestReorderVerdictMatrix(t *testing.T) {
	type cell struct {
		name string
		sys  *gcl.System
		prop mc.Property
	}
	var cells []cell

	for deg := 1; deg <= 3; deg++ {
		m, err := original.Build(original.Config{N: 3, FaultyNode: 1, FaultDegree: deg, DeltaInit: 2})
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells,
			cell{fmt.Sprintf("bus/deg%d/safety", deg), m.Sys, m.Safety()},
			cell{fmt.Sprintf("bus/deg%d/liveness", deg), m.Sys, m.Liveness()},
		)
	}
	hubOn := startup.DefaultConfig(3)
	hubOn.DeltaInit = 2
	hubOnModel, err := startup.Build(hubOn)
	if err != nil {
		t.Fatal(err)
	}
	cells = append(cells, cell{"hub/big-bang-on/safety", hubOnModel.Sys, hubOnModel.Safety()})
	hubOff := startup.DefaultConfig(3).WithFaultyHub(0)
	hubOff.DeltaInit = 2
	hubOff.DisableBigBang = true
	hubOffModel, err := startup.Build(hubOff)
	if err != nil {
		t.Fatal(err)
	}
	cells = append(cells, cell{"hub/big-bang-off/safety", hubOffModel.Sys, hubOffModel.Safety()})

	check := func(sys *gcl.System, prop mc.Property, opts symbolic.Options) (*mc.Result, error) {
		eng, err := symbolic.New(sys.Compile(), opts)
		if err != nil {
			return nil, err
		}
		if prop.Kind == mc.Eventually {
			return eng.CheckEventuallyCtx(context.Background(), prop)
		}
		return eng.CheckInvariantCtx(context.Background(), prop)
	}

	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			off, err := check(c.sys, c.prop, symbolic.Options{})
			if err != nil {
				t.Fatal(err)
			}
			on, err := check(c.sys, c.prop, symbolic.Options{
				BDD: bdd.Config{AutoReorder: true, ReorderStart: 1 << 9},
			})
			if err != nil {
				t.Fatal(err)
			}
			if off.Verdict != on.Verdict {
				t.Fatalf("verdict changed: %v without reordering, %v with", off.Verdict, on.Verdict)
			}
			if off.Stats.Reachable != nil && on.Stats.Reachable != nil &&
				off.Stats.Reachable.Cmp(on.Stats.Reachable) != 0 {
				t.Fatalf("reachable count changed: %v without reordering, %v with",
					off.Stats.Reachable, on.Stats.Reachable)
			}
			if (off.Trace == nil) != (on.Trace == nil) {
				t.Fatalf("trace presence changed across reordering")
			}
			// Invariant traces are breadth-first layered, so their length
			// (first violating depth) is canonical. Liveness lassos are
			// extracted by cube-picking inside the cycle and may legally
			// take a different (equally valid) shape under another order.
			if off.Trace != nil && c.prop.Kind == mc.Invariant && off.Trace.Len() != on.Trace.Len() {
				t.Fatalf("trace length changed: %d without reordering, %d with",
					off.Trace.Len(), on.Trace.Len())
			}
			if off.Trace != nil {
				verifyTrace(t, c.sys, c.prop, off.Trace)
				verifyTrace(t, c.sys, c.prop, on.Trace)
			}
		})
	}
}
