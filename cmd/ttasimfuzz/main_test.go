package main

import "testing"

// TestCoverWithoutCheckpoint: -cover compares the report's own visited
// set with the model, so an in-memory campaign (no -out) can ask for it.
func TestCoverWithoutCheckpoint(t *testing.T) {
	code, err := run([]string{"-n", "3", "-samples", "200", "-batch", "100", "-delta-init", "2",
		"-degree", "2", "-mix", "fault-free:1,faulty-node:2", "-cover"})
	if err != nil || code != 0 {
		t.Fatalf("-cover without -out: exit %d, err %v", code, err)
	}
}
