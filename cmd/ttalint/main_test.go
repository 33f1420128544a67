package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestGoldenOutput: the text report of the -all sweep and of the bus
// example in the command's doc comment, with and without its -degree,
// match the committed golden files byte for byte, with -j 2 for the sweep
// (reports keep their input order whatever the pool size).
func TestGoldenOutput(t *testing.T) {
	for _, c := range []struct {
		args   []string
		golden string
	}{
		{[]string{"-all", "-j", "2"}, "testdata/all.golden"},
		{[]string{"-topology", "bus", "-n", "4", "-faulty-node", "0", "-degree", "3"}, "testdata/bus.golden"},
		// An unset -degree is the topology's highest: 3 on the bus.
		{[]string{"-topology", "bus", "-n", "4", "-faulty-node", "0"}, "testdata/bus.golden"},
	} {
		var out bytes.Buffer
		if err := run(c.args, &out); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		if out.String() != string(want) {
			t.Errorf("%v: output differs from %s:\n got:\n%s\nwant:\n%s", c.args, c.golden, out.String(), want)
		}
	}
}

// TestRejectsBadConfigurations: settings the chosen topology does not
// have, or fault combinations the single-failure hypothesis forbids, are
// errors rather than silently dropped.
func TestRejectsBadConfigurations(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-topology", "bogus"}, `unknown topology "bogus"`},
		{[]string{"-degree", "9"}, "fault degree 9 outside 1..6"},
		{[]string{"-faulty-node", "1", "-faulty-hub", "0"}, "single-failure hypothesis"},
		{[]string{"-topology", "bus", "-faulty-hub", "0"}, "bus job: faulty-hub"},
		{[]string{"-topology", "bus", "-no-feedback", "-restartable"}, "bus job: no-feedback, restartable"},
	} {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.want)
		}
	}
}
