package main

import (
	"strings"
	"testing"
)

// TestRejectsBadConfigurations: the flags map onto one campaign job, so
// ttamc refuses what the job mapping refuses (a faulty node next to a
// faulty hub, hub-only settings on the bus) plus the hub-only features
// that need the hub's suite.
func TestRejectsBadConfigurations(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-faulty-node", "1", "-faulty-hub", "0"}, "single-failure hypothesis"},
		{[]string{"-model", "bus", "-faulty-hub", "0"}, "bus job: faulty-hub"},
		{[]string{"-model", "bus", "-restartable"}, "bus job: restartable"},
		{[]string{"-model", "bus", "-no-watchdog"}, "bus job: no-watchdog"},
		{[]string{"-model", "bus", "-wcsup"}, "-wcsup and -count apply to the hub model only"},
		{[]string{"-model", "bus", "-count"}, "-wcsup and -count apply to the hub model only"},
		{[]string{"-model", "ring"}, `unknown -model "ring"`},
	} {
		err := run(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.want)
		}
	}
}
