package main

import (
	"flag"
	"strings"
	"testing"

	"ttastartup/internal/campaign"
	"ttastartup/internal/core"
)

// TestTimeoutIsInconclusive: a lemma whose budget runs out has no verdict,
// so ttamc must fail on both topologies instead of exiting cleanly.
func TestTimeoutIsInconclusive(t *testing.T) {
	for _, model := range []string{"hub", "bus"} {
		err := run([]string{"-model", model, "-n", "3", "-lemma", "safety,liveness",
			"-engine", "ic3", "-timeout", "1ms", "-lint", "off"})
		if err == nil || !strings.Contains(err.Error(), "2 lemma(s) inconclusive") {
			t.Errorf("-model %s: err = %v, want 2 lemma(s) inconclusive", model, err)
		}
	}
}

// TestRecoveryLemma: the CTL recovery property is an ordinary -lemma on
// the hub model, and the bus model, which has no such lemma, refuses it.
func TestRecoveryLemma(t *testing.T) {
	if err := run([]string{"-n", "3", "-restartable", "-delta-init", "4", "-lemma", "recovery"}); err != nil {
		t.Errorf("hub -lemma recovery: %v", err)
	}
	err := run([]string{"-model", "bus", "-lemma", "recovery"})
	if err == nil || !strings.Contains(err.Error(), "no lemma recovery") {
		t.Errorf("bus -lemma recovery: err = %v, want no lemma recovery", err)
	}
}

// TestModelLineSwitches: the model line names the hub's design switches
// when any is on, and is unchanged from the switch-free form otherwise.
func TestModelLineSwitches(t *testing.T) {
	const plain = "model: tta-startup-n3  (faulty-node=-1 faulty-hub=-1 degree=6 δ_init=2 big-bang=true feedback=true"
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, plain + ")"},
		{[]string{"-no-cs-priority", "-no-cs-window", "-no-watchdog"},
			plain + " switches=no-cs-priority,no-cs-window,no-watchdog)"},
	} {
		fs := flag.NewFlagSet("ttamc", flag.ContinueOnError)
		jobFlags := campaign.BindJobFlags(fs)
		if err := fs.Parse(append([]string{"-n", "3", "-delta-init", "2"}, c.args...)); err != nil {
			t.Fatal(err)
		}
		job := jobFlags.Job(campaign.TopologyHub)
		m, err := campaign.BuildModel(job, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := modelLine(m, job); got != c.want {
			t.Errorf("%v: model line\n got  %s\n want %s", c.args, got, c.want)
		}
	}
}
