package mc_test

import (
	"strings"
	"testing"

	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
)

func TestPropertyString(t *testing.T) {
	sys := gcl.NewSystem("s")
	m := sys.Module("m")
	v := m.Var("v", gcl.IntType("t", 4), gcl.InitConst(0))
	m.Cmd("t", gcl.True())
	sys.MustFinalize()

	p := mc.Property{Name: "demo", Kind: mc.Invariant, Pred: gcl.Lt(gcl.X(v), gcl.C(gcl.IntType("t", 4), 3))}
	if got := p.String(); !strings.Contains(got, "demo") || !strings.Contains(got, "G(") {
		t.Errorf("Property.String = %q", got)
	}
	p.Kind = mc.Eventually
	if got := p.String(); !strings.Contains(got, "F(") {
		t.Errorf("Property.String = %q", got)
	}
	c := mc.Property{Name: "rec", Kind: mc.CTL, CTL: mc.CTLAG(mc.CTLAF(mc.CTLAtom(p.Pred)))}
	if got := c.String(); !strings.HasPrefix(got, "rec: AG") || mc.CTL.String() != "CTL" {
		t.Errorf("CTL Property.String = %q", got)
	}
}

func TestVerdictStrings(t *testing.T) {
	if mc.Holds.String() != "holds" || mc.Violated.String() != "VIOLATED" ||
		mc.HoldsBounded.String() != "holds (bounded)" {
		t.Error("verdict strings broken")
	}
}

func TestTraceFormatLasso(t *testing.T) {
	sys := gcl.NewSystem("s")
	m := sys.Module("m")
	v := m.Var("v", gcl.IntType("t", 4), gcl.InitConst(0))
	m.Cmd("inc", gcl.True(), gcl.Set(v, gcl.AddMod(gcl.X(v), 1)))
	sys.MustFinalize()

	mk := func(val int) gcl.State {
		st := make(gcl.State, len(sys.Vars()))
		st.Set(v, val)
		return st
	}
	tr := &mc.Trace{States: []gcl.State{mk(0), mk(1), mk(2)}, LoopsTo: 1}
	text := tr.Format(sys)
	for _, want := range []string{"step  0", "m.v=1", "loops back to step 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("trace missing %q:\n%s", want, text)
		}
	}
	if tr.Len() != 3 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestResultString(t *testing.T) {
	res := &mc.Result{
		Property: mc.Property{Name: "p", Kind: mc.Invariant, Pred: gcl.True()},
		Verdict:  mc.Violated,
		Trace:    mc.NewTrace([]gcl.State{make(gcl.State, 1)}),
		Stats:    mc.Stats{Engine: "symbolic"},
	}
	s := res.String()
	for _, want := range []string{"p", "symbolic", "VIOLATED", "length 1"} {
		if !strings.Contains(s, want) {
			t.Errorf("Result.String missing %q: %s", want, s)
		}
	}
	if res.Holds() {
		t.Error("violated result reported as holding")
	}
}

func TestCTLString(t *testing.T) {
	sys := gcl.NewSystem("s")
	m := sys.Module("m")
	v := m.Var("v", gcl.BoolType(), gcl.InitConst(0))
	m.Cmd("t", gcl.True())
	sys.MustFinalize()
	atom := mc.CTLAtom(gcl.X(v))
	f := mc.CTLAG(mc.CTLAF(mc.CTLOr(atom, mc.CTLNot(mc.CTLEX(atom)))))
	s := f.String()
	for _, want := range []string{"AG", "AF", "EX", "!("} {
		if !strings.Contains(s, want) {
			t.Errorf("CTL string missing %q: %s", want, s)
		}
	}
	u := mc.CTLEU(atom, mc.CTLAX(atom)).String()
	if !strings.Contains(u, "E[") || !strings.Contains(u, " U ") || !strings.Contains(u, "AX") {
		t.Errorf("EU/AX rendering: %s", u)
	}
}
