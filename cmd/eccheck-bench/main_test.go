package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestExperimentRegistry(t *testing.T) {
	exps := experiments()
	seen := map[string]bool{}
	for _, e := range exps {
		if e.name == "" || e.desc == "" || e.run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.name] {
			t.Errorf("duplicate experiment %q", e.name)
		}
		seen[e.name] = true
	}
	want := []string{"table1", "fig3", "fig4", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"ablation", "groupsize", "frequency", "elastic", "scaleout"}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("missing experiment %q", name)
		}
	}
	if len(exps) != len(want) {
		t.Errorf("%d experiments registered, want exactly %v", len(exps), want)
	}
}

func TestExperimentsProduceOutput(t *testing.T) {
	// Run the cheap analytical experiments end to end through the
	// registry (the timing ones are covered by the harness tests).
	for _, name := range []string{"table1", "fig3", "fig4", "fig15"} {
		for _, e := range experiments() {
			if e.name != name {
				continue
			}
			var buf bytes.Buffer
			if err := e.run(&buf); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", name)
			}
			if !strings.Contains(strings.ToLower(buf.String()), strings.TrimPrefix(name, "fig")) &&
				name != "table1" {
				t.Errorf("%s output does not mention itself", name)
			}
		}
	}
}
