package mcfi

import (
	"flag"
	"fmt"
)

// ScenarioFlags is the scenario flag group ttasim and ttasimfuzz share:
// -n, -seed, -delta-init, -max-slots, -degree, -mix and -no-big-bang.
// Declared once, the two commands expand the same scenario k from the
// same flags and defaults.
type ScenarioFlags struct {
	spec Spec
	mix  string
}

// BindScenarioFlags declares the scenario flags on fs.
func BindScenarioFlags(fs *flag.FlagSet) *ScenarioFlags {
	f := &ScenarioFlags{}
	sp := &f.spec
	fs.IntVar(&sp.N, "n", 4, "cluster size")
	fs.Int64Var(&sp.Seed, "seed", 1, "campaign seed (scenario k uses DeriveSeed(seed, k))")
	fs.IntVar(&sp.DeltaInit, "delta-init", 0, "power-on window (0: 8·round)")
	fs.IntVar(&sp.MaxSlots, "max-slots", 0, "slot budget per run (0: 20·round)")
	fs.IntVar(&sp.Degree, "degree", 0, "pin every faulty node's fault degree (0: uniform 1..6 per node)")
	fs.StringVar(&f.mix, "mix", "", "scenario mix as kind:weight,... (empty: the default mix)")
	fs.BoolVar(&sp.DisableBigBang, "no-big-bang", false, "disable the big-bang mechanism (Section 5.2 variant)")
	return f
}

// Spec returns the (not yet normalized) spec the parsed flags describe;
// a malformed -mix is an error naming the flag.
func (f *ScenarioFlags) Spec() (Spec, error) {
	sp := f.spec
	if f.mix != "" {
		var err error
		if sp.Mix, err = ParseMix(f.mix); err != nil {
			return Spec{}, fmt.Errorf("-mix: %w", err)
		}
	}
	return sp, nil
}
