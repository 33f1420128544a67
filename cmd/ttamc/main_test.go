package main

import (
	"strings"
	"testing"
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
