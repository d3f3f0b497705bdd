package main

import (
	"encoding/json"
	"testing"

	dmtcpsim "repro"
)

// traceNames runs a scenario traced, exactly as `dmtcpsim -scenario
// <name> -trace out.json` does, and returns the set of event names in
// the written Chrome trace, failing on an empty trace.  It also returns
// the tracer for checks over the events themselves.
func traceNames(t *testing.T, run func(scenOpts)) (map[string]bool, *dmtcpsim.Tracer) {
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
	return names, o.tracer
}

// TestLazyRestoreScenarioTrace checks the lazy-restore trace carries
// the post-copy path's spans: the skeleton install, demand faults, the
// restart's prefetch segment, and the pull stream's per-connection
// fetch spans.
func TestLazyRestoreScenarioTrace(t *testing.T) {
	names, _ := traceNames(t, lazyRestoreScenario)
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
	names, _ := traceNames(t, chaosScenario)
	for _, want := range []string{"net.fault_injected", "net.fault_healed", "scrub.pass",
		"store.quarantine", "coord.takeover", "coord.stepdown"} {
		if !names[want] {
			t.Errorf("chaos trace missing %s", want)
		}
	}
}

// TestPipelineScenarioTrace checks the pipeline trace carries the
// write stage's chunk and commit phases, the parallel writers' worker
// spans, and the eager replication stream that overlaps them.
func TestPipelineScenarioTrace(t *testing.T) {
	names, _ := traceNames(t, pipelineScenario)
	for _, want := range []string{"ckpt.write.chunks", "ckpt.write.commit", "ckpt-worker", "repl.stream"} {
		if !names[want] {
			t.Errorf("pipeline trace missing %s", want)
		}
	}
}

// TestZeroLossScenarioTrace checks the zero-loss trace records the
// mid-round takeover, the resumed round and the replica re-fan-out,
// and that every resumed round's blocking chain sums to its wall
// within 1%: the spans still partition a round that changed leaders.
func TestZeroLossScenarioTrace(t *testing.T) {
	names, tr := traceNames(t, zeroLossScenario)
	for _, want := range []string{"coord.resume", "coord.takeover", "coord.rebalance", "replica.repair"} {
		if !names[want] {
			t.Errorf("zero-loss trace missing %s", want)
		}
	}
	resumed := map[int64]bool{}
	for _, e := range tr.Events() {
		if e.Name != "coord.resume" {
			continue
		}
		for _, a := range e.Args {
			if a.Key == "tag" {
				resumed[a.Val] = true
			}
		}
	}
	for _, r := range dmtcpsim.AnalyzeTrace(tr).Rounds {
		if !resumed[r.Tag] {
			continue
		}
		delete(resumed, r.Tag)
		var chain int64
		for _, st := range r.Stages {
			chain += st.WallNS
		}
		if d := chain - r.WallNS; r.WallNS <= 0 || 100*max(d, -d) > r.WallNS {
			t.Errorf("resumed round %d: blocking chain %d ns != wall %d ns (>1%%)", r.Tag, chain, r.WallNS)
		}
	}
	if len(resumed) > 0 {
		t.Errorf("resumed round(s) %v missing from the critical-path analysis", resumed)
	}
}
