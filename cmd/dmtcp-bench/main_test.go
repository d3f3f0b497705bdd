package main

import (
	"testing"

	dmtcpsim "repro"
)

// smokeIDs are the experiments whose traced tables must carry a
// reconciled critical path.
var smokeIDs = []string{"store", "table1", "failover", "coordha", "pipeline", "restore", "restorelazy", "chaos"}

// TestCriticalPathReconciles regenerates the smoke experiments at quick
// scale under a tracer, as `dmtcp-bench -run <ids> -trials 1 -quick
// -json` does, and checks every table's critical_path: it has rounds,
// and each round's blocking chain sums to the round wall within 1%.
func TestCriticalPathReconciles(t *testing.T) {
	tracer := dmtcpsim.NewTracer()
	dmtcpsim.TraceExperiments(tracer)
	t.Cleanup(func() { dmtcpsim.TraceExperiments(nil) })

	byID := map[string]exp{}
	for _, e := range experiments(dmtcpsim.Opts{Quick: true, Trials: 1, Seed: 1}) {
		byID[e.id] = e
	}
	checked := 0
	for _, id := range smokeIDs {
		e, ok := byID[id]
		if !ok {
			t.Fatalf("experiment %q not listed", id)
		}
		cp := e.regenerate(tracer).CriticalPath
		if cp == nil || len(cp.Rounds) == 0 {
			t.Errorf("table %s: no critical_path rounds", id)
			continue
		}
		for i, r := range cp.Rounds {
			var chain int64
			for _, s := range r.Stages {
				chain += s.WallNS
			}
			diff := chain - r.WallNS
			if diff < 0 {
				diff = -diff
			}
			if r.WallNS <= 0 || diff*100 > r.WallNS {
				t.Errorf("table %s round %d: blocking chain %d ns != round wall %d ns (>1%%)", id, i, chain, r.WallNS)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no rounds analyzed")
	}
	t.Logf("critical_path reconciled over %d rounds in %d tables", checked, len(smokeIDs))
}
