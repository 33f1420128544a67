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
