package main

import (
	"encoding/json"
	"testing"

	dmtcpsim "repro"
)

// TestLazyRestoreScenarioTrace runs the lazy-restore scenario traced,
// exactly as `dmtcpsim -scenario lazy-restore -trace out.json` does,
// and checks the written trace carries the post-copy path's spans: the
// skeleton install, demand faults, the restart's prefetch segment, and
// the pull stream's per-connection fetch spans.
func TestLazyRestoreScenarioTrace(t *testing.T) {
	o := scenOpts{nodes: 4, tracer: dmtcpsim.NewTracer()}
	lazyRestoreScenario(o)
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
	for _, want := range []string{"restore.skeleton", "lazy.fault", "restart.prefetch", "repl.fetch"} {
		if !names[want] {
			t.Errorf("lazy-restore trace missing %s spans", want)
		}
	}
}
