package main

import (
	"go/ast"
	"go/doc"
	"go/format"
	"go/parser"
	"go/token"
	"strings"
	"testing"
	"unicode"
)

// Each Example runs one registry entry exactly as `dmtcpsim -scenario
// <name>` does with default flags and pins its whole stdout, so a demo
// that breaks, panics or drifts fails tier-1.

func example(name string) { lookup(name).run(scenOpts{nodes: 4}) }

// TestEveryScenarioPinned checks that the registry and the Examples in
// this file name the same scenarios, that every Example pins output,
// and that Example_fooBar runs the entry called foo-bar.
func TestEveryScenarioPinned(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "example_test.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]bool{}
	for _, ex := range doc.Examples(f) {
		name := kebab(strings.TrimPrefix(ex.Name, "_"))
		pinned[name] = true
		if ex.Output == "" {
			t.Errorf("Example for %s pins no output", name)
		}
		var body strings.Builder
		if err := format.Node(&body, fset, ex.Code.(*ast.BlockStmt).List); err != nil {
			t.Fatal(err)
		}
		if want := `example("` + name + `")`; body.String() != want {
			t.Errorf("Example for %s runs %s, want %s", name, body.String(), want)
		}
	}
	for _, s := range scenarios {
		if !pinned[s.name] {
			t.Errorf("scenario %s has no Example with pinned output", s.name)
		}
		delete(pinned, s.name)
	}
	for name := range pinned {
		t.Errorf("Example for %s names no registry entry", name)
	}
}

// kebab maps an Example suffix to its scenario name: zeroLoss → zero-loss.
func kebab(s string) string {
	var b strings.Builder
	for _, r := range s {
		if unicode.IsUpper(r) {
			b.WriteByte('-')
			r = unicode.ToLower(r)
		}
		b.WriteRune(r)
	}
	return b.String()
}

func Example_quickstart() {
	example("quickstart")
	// Output:
	// dmtcp_checkpoint primes
	// dmtcp_command --checkpoint
	//   checkpointed in 110ms, image 2 KB
	// restart script:
	// #!/bin/sh
	// # generated by dmtcp_checkpoint
	// ssh node00 dmtcp_restart /ckpt/ckpt_primes_node00_5.dmtcp.gz &
	// wait
	// killing the process (simulated crash)
	// dmtcp_restart ckpt_primes_*.dmtcp.gz
	//   restarted in 4ms
	//   [restored at n=845, 146 primes found]
	//   [done: 2000th prime is 17389]
	// result after restart: 2000th prime = 17389 (expected 17389)
}

func Example_mpi() {
	example("mpi")
	// Output:
	// orterun -np 16 nas-lu under DMTCP ...
	// checkpointed 21 processes (ranks + orteds + orterun) in 1.203s
	// restarted; waiting for the benchmark to verify ...
	// nas-lu VERIFIED np=16 chk=7268645770770558736
}

func Example_migrate() {
	example("migrate")
	// Output:
	// phase 1: ParGeant4 with 16 compute processes on 4 nodes
	// checkpointed 37 processes (16 compute + resource managers) in 6.333s
	// shutting the cluster down; flying home ...
	// restarted everything on node00 in 11.002s
	// process tree on the laptop:
	//   pargeant4  ×16
	//   pmi_proxy  ×16
	//   mpd        ×1
	//   mpiexec    ×1
}

func Example_desktop() {
	example("desktop")
	// Output:
	// opening the workspace: matlab, tightvnc+twm, vim/cscope
	// interval checkpointing took 4 automatic checkpoints
	// last checkpoint: 6 processes, 63 MB compressed, 3.265s
	// logging out (killing the whole session)
	// restoring the workspace from the last checkpoint
	// workspace back in 1.739s
	// restored processes:
	//   app:tightvnc+twm/twm     pid=12 (virtual 9)
	//   app:vim/cscope/cscope    pid=13 (virtual 8)
	//   app:tightvnc+twm/xterm   pid=14 (virtual 10)
	//   app:vim/cscope           pid=15 (virtual 7)
	//   app:tightvnc+twm         pid=16 (virtual 6)
	//   app:matlab               pid=17 (virtual 5)
}

func Example_store() {
	example("store")
	// Output:
	// launching a 256 MB process; checkpoints go through the chunk store ...
	// gen 1: write 2.346s  new chunks 265/265  wrote 93.9 MB  dedup 0.0 MB
	//        gc: 1 manifests, 265 live chunks, 0 swept (0 pruned)
	// gen 2: write 248ms  new chunks 26/265  wrote 9.2 MB  dedup 84.8 MB
	//        gc: 2 manifests, 291 live chunks, 0 swept (0 pruned)
	// gen 3: write 248ms  new chunks 26/265  wrote 9.2 MB  dedup 84.8 MB
	//        gc: 2 manifests, 291 live chunks, 26 swept (1 pruned)
	// gen 4: write 246ms  new chunks 26/265  wrote 9.2 MB  dedup 84.8 MB
	//        gc: 2 manifests, 291 live chunks, 26 swept (1 pruned)
	// restarted from manifest generation 4 in 1.353s
}

func Example_failover() {
	example("failover")
	// Output:
	// launching a 128 MB process on node01; generations replicate to 2 peers ...
	// gen 1 committed and replicated: 97.8 MB shipped to peers
	// gen 2 committed and replicated: 9.1 MB shipped to peers
	// gen 3 committed and replicated: 9.1 MB shipped to peers
	// killing node01 (processes, checkpoints, and chunk store all lost) ...
	// recovered on node02 from generation 3 in 768ms (fetched 0.00 MB from peers)
	//   dirtyapp     now on node02
}

func Example_coordFailover() {
	example("coord-failover")
	// Output:
	// coordinator on node01 journals its state machine to a standby on node02 ...
	// gen 1 checkpointed in 1.332s under node01 (journal: 141 entries, 7.1 KB shipped)
	// gen 2 checkpointed in 263ms under node01 (journal: 179 entries, 9.1 KB shipped)
	// killing node01 — the coordinator dies with its node ...
	// standby on node02 took over in 220ms (replayed 2 rounds from the journal)
	// post-takeover checkpoint: 1 process(es) in 352ms — the manager resynced mid-computation
	// killing node03 too — data-plane recovery now runs under the promoted standby ...
	// recovered on node00 from generation 3 in 931ms
	//   dirtyapp     now on node00
}

func Example_zeroLoss() {
	example("zero-loss")
	// Output:
	// zero-loss control plane: synchronous barrier commits, mid-round takeover, replica re-fan-out ...
	// requesting a checkpoint; killing the coordinator once the drain barrier has committed ...
	// standby on node02 took over in 220ms with round tag 1 mid-flight
	// round resumed and completed under the standby: 1 process(es), write 3ms
	// rounds lost on takeover: 0
	// killing replica holder node04 — background re-fan-out restores redundancy ...
	// rebalance restored 1 copies in 1.012s (QoS-paced at 50% of push bandwidth)
	// post-repair checkpoint round clean: the control plane lost nothing
}

func Example_pipeline() {
	example("pipeline")
	// Output:
	// parallel pipelined checkpoint write: 256 MB process, 100% dirty, 4-core nodes ...
	//   1 worker(s): write 8.378s  speedup 1.00x  overlap  89.6 MB of  90.0 MB shipped before commit
	//   2 worker(s): write 4.303s  speedup 1.95x  overlap  89.3 MB of  90.0 MB shipped before commit
	//   4 worker(s): write 2.265s  speedup 3.70x  overlap  88.6 MB of  90.0 MB shipped before commit
	//   8 worker(s): write 2.265s  speedup 3.70x  overlap  87.2 MB of  90.0 MB shipped before commit
	// 4 cores per node: 8 workers buy nothing over 4 — the core accounting is honest
}

func Example_restore() {
	example("restore")
	// Output:
	// streamed restore pipeline: remote-fetch restart of a 256 MB process, 4-core nodes ...
	//   fetch-then-install (old path), 1 worker: restart  6.186s  (fetch 1.35s, then install)
	//   streamed, 1 worker(s): restart  4.844s  speedup 1.28x  ( 26.4 MB of  93.9 MB installed before the fetch ended)
	//   streamed, 2 worker(s): restart  2.524s  speedup 2.45x  ( 32.7 MB of  93.9 MB installed before the fetch ended)
	//   streamed, 4 worker(s): restart  1.368s  speedup 4.52x  ( 44.7 MB of  93.9 MB installed before the fetch ended)
	//   streamed, 8 worker(s): restart  1.377s  speedup 4.49x  ( 34.8 MB of  93.9 MB installed before the fetch ended)
	// already-local chunks skip the network stage; recovery and migration ride the same pipeline
}

func Example_lazyRestore() {
	example("lazy-restore")
	// Output:
	// lazy post-copy restore: 256 MB process, checkpoint replicated to 3 holders ...
	//   full install (streamed):  resumed after   1.82s  (264.0 MB fetched before resume)
	//   lazy, 1 holder:           resumed after    35ms  drain  3.621s  (8 demand faults,   8.0 MB on-demand)
	//   lazy, striped x4 holders: resumed after    35ms  drain  1.404s  (8 demand faults,   8.0 MB on-demand)
	// resume pause 1.9% of full-install MTTR; striped drain 2.58x faster than one holder
}

func Example_straggler() {
	example("straggler")
	// Output:
	// straggler: node01 at 1/3 speed under background load; 3x 96 MB processes, adaptive worker pools ...
	//   with the health plane (heartbeat -> straggler score -> next-round worker hint):
	//     round 1 write node00     932ms  score 1.00
	//     round 1 write node01    9.372s  score 10.05  <- straggler
	//     round 1 write node02     933ms  score 1.00
	//     next-round hint: node01 -> 4 workers
	//     round 2 write: 4.107s
	//   without it (HeartbeatInterval=0): round 2 write 9.264s
	//   the hint bought 2.26x on the straggler-bound round
}

func Example_chaos() {
	example("chaos")
	// Output:
	// chaos schedule: leader partition, lossy links, bit rot, node death ...
	//
	// [1/4] partitioning leader node01 away mid-round ...
	//       standby on node02 promoted itself in 205ms (journal silence; the leader is alive but unreachable)
	//       round resumed and completed under the new leader; rounds lost: 0
	//       deposed leader stepped down and converged onto epoch 1 (0 fenced journal writes rejected)
	// [2/4] making every link lossy (3% drop, +500us latency) and checkpointing through it ...
	//       round committed in 163ms across the flaky network
	// [3/4] flipped one bit in chunk 74a4b9e2cff0 on node05; waiting for the scrubber ...
	//       scrub detected and quarantined it in 1.52s (no reader involved)
	//       repair re-sourced the generation from a clean holder (1 quarantined object(s) on node05)
	// [4/4] killing workload node node04 ...
	//       recovered 1 process(es) on node00 in 710ms (MTTR: detect + rollback + fetch + restart)
	//
	// closing checkpoint round clean: the schedule survived with zero rounds lost
}

func Example_partitionHeal() {
	example("partition-heal")
	// Output:
	// control run: 300 ticks, one checkpoint round, no faults
	//   done 230e2507c06a3b4f
	// chaos run: same schedule with the leader partitioned mid-round
	//   leader node01 cut mid-round; standby node02 promoted itself in 425ms; partition healed
	//   done 230e2507c06a3b4f
	// outputs are byte-identical: zero ticks lost, zero replayed, checksums match
}

func Example_deadlockRevert() {
	example("deadlock-revert")
	// Output:
	// watchdog: progress 19/40, checkpoint taken
	// watchdog: progress 25/40, checkpoint taken
	// watchdog: DEADLOCK at step 25 — reverting to last checkpoint in safe mode
	// watchdog: progress 40/40, checkpoint taken
	// computation finished: 40/40 steps (survived the deadlock)
}
