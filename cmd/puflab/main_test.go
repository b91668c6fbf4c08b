package main

import (
	"strings"
	"testing"
)

// TestCommandAndExperimentNamesDisjoint pins the dispatch: an operational
// command shadowing an experiment name makes that experiment unreachable
// except through `all`, and every experiment the usage names must run one.
func TestCommandAndExperimentNamesDisjoint(t *testing.T) {
	for name := range commands {
		if _, ok := runners[name]; ok {
			t.Errorf("%q is both an operational command and an experiment", name)
		}
	}
	var listed []string
	for _, line := range strings.Split(usageText, "\n") {
		if rest, ok := strings.CutPrefix(line, "experiments:"); ok {
			listed = strings.Fields(rest)
		}
	}
	if len(listed) == 0 {
		t.Fatal("usage has no experiments line")
	}
	for _, name := range listed {
		if _, ok := commands[name]; ok {
			t.Errorf("usage lists experiment %q, but it dispatches to an operational command", name)
		}
		if _, ok := runners[name]; !ok && name != "campaign" && name != "all" {
			t.Errorf("usage lists experiment %q, which has no runner", name)
		}
	}
	for _, name := range allOrder {
		if _, ok := runners[name]; !ok {
			t.Errorf("all runs %q, which has no runner", name)
		}
	}
}
