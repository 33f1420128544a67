package mcfi

import (
	"flag"
	"testing"
)

// TestScenarioFlagsDefaults: the scenario flags' defaults normalize to the
// same spec, and so the same digest, as a bare n=4, seed 1 spec.
func TestScenarioFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	f := BindScenarioFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	sp, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sp.Normalize().Digest(), (Spec{N: 4, Seed: 1}).Normalize().Digest(); got != want {
		t.Fatalf("default flags digest %s, want %s", got, want)
	}
}

// TestScenarioFlagsMix: -mix parses into Spec.Mix; a malformed mix is an
// error naming the flag, and an unknown kind fails scenario expansion.
func TestScenarioFlagsMix(t *testing.T) {
	parse := func(mix string) (Spec, error) {
		fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
		f := BindScenarioFlags(fs)
		if err := fs.Parse([]string{"-mix", mix}); err != nil {
			t.Fatal(err)
		}
		return f.Spec()
	}
	sp, err := parse("fault-free:1,faulty-node:2")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Mix["fault-free"] != 1 || sp.Mix["faulty-node"] != 2 || len(sp.Mix) != 2 {
		t.Fatalf("Mix = %v", sp.Mix)
	}
	if _, err := parse("faulty-node"); err == nil || err.Error() != `-mix: want kind:weight, got "faulty-node"` {
		t.Errorf("malformed -mix: err = %v", err)
	}
	sp, err = parse("bogus:1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Normalize().Scenario(0); err == nil || err.Error() != `sim: unknown scenario kind "bogus"` {
		t.Errorf("unknown kind: err = %v", err)
	}
}
