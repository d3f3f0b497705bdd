package main

import (
	"encoding/json"
	"testing"

	dmtcpsim "repro"
)

// traceNames runs a scenario traced, exactly as `dmtcpsim -scenario
// <name> -trace out.json` does, and returns the set of event names in
// the written Chrome trace.
func traceNames(t *testing.T, run func(scenOpts)) map[string]bool {
	t.Helper()
	o := scenOpts{nodes: 4, tracer: dmtcpsim.NewTracer()}
	run(o)
	dmtcpsim.AnnotateFlows(o.tracer)
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(o.tracer.ChromeTrace(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	names := map[string]bool{}
	for _, e := range trace.TraceEvents {
		names[e.Name] = true
	}
	return names
}

// TestLazyRestoreScenarioTrace checks the lazy-restore trace carries
// the post-copy path's spans: the skeleton install, demand faults, the
// restart's prefetch segment, and the pull stream's per-connection
// fetch spans.
func TestLazyRestoreScenarioTrace(t *testing.T) {
	names := traceNames(t, lazyRestoreScenario)
	for _, want := range []string{"restore.skeleton", "lazy.fault", "restart.prefetch", "repl.fetch"} {
		if !names[want] {
			t.Errorf("lazy-restore trace missing %s spans", want)
		}
	}
}

// TestChaosScenarioTrace checks the chaos trace records every fault
// the schedule injects and the machinery's answer to each: injected
// and healed network faults, scrub passes, the quarantined bit rot,
// and the coordinator takeover with the deposed leader's step-down.
func TestChaosScenarioTrace(t *testing.T) {
	names := traceNames(t, chaosScenario)
	for _, want := range []string{"net.fault_injected", "net.fault_healed", "scrub.pass",
		"store.quarantine", "coord.takeover", "coord.stepdown"} {
		if !names[want] {
			t.Errorf("chaos trace missing %s", want)
		}
	}
}
