package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/dmtcp"
	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/mpi"
	"repro/internal/npb"
)

// workload is one benchmark input.
type workload struct {
	name string
	why  string
	sc   scenario
}

// trialsPerPass is how many seeded trials make up one pass; each runs
// its own sub-seed of --seed, so a pass medians over several seeds'
// virtual behaviour.
const trialsPerPass = 4

var workloads = []workload{mpiMG, storeFailover, coordHA}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- mpi-mg ----------------------------------------------------------

// The restart schedule is fixed here, in the workload definition, and
// not tuned to results: a checkpoint every mgPeriod of computation, and
// after rounds 1 and 3 the job runs mgRollback more, is killed, and is
// restarted from the round just taken.
const (
	mgNodes    = 2
	mgPerNode  = 4
	mgScale    = 25 // percent of class C: 2×4 ranks hold the paper's per-rank footprint
	mgPeriod   = 200 * time.Millisecond
	mgRollback = 100 * time.Millisecond
	mgMaxRound = 12
	mgDeadline = 120 * time.Second
	mgVerify   = "/out/nas-mg.verify"
)

var mgRestartAfter = []int{1, 3}

func mgRestartOp(round int) string { return fmt.Sprintf("restart after round %d", round) }

var mpiMG = workload{
	name: "mpi-mg",
	why:  "NAS MG under OpenMPI, checkpointed and restarted twice on a fixed schedule: the MPI message path and monolithic compressed images dominate",
	sc: scenario{
		nodes:    mgNodes,
		cfg:      dmtcp.Config{Compress: true},
		deadline: mgDeadline,
		launch: func(env *experiments.Env, t *kernel.Task, _ int64) error {
			np := mgNodes * mgPerNode
			if _, err := env.Sys.Launch(0, "orterun", strconv.Itoa(np), strconv.Itoa(mgPerNode), "0",
				strconv.Itoa(mpi.BasePort), "nas-mg", strconv.Itoa(mgScale)); err != nil {
				return err
			}
			// orterun, one orted per node and the ranks.
			return waitManaged(env, t, 1+mgNodes+np)
		},
		measure: measureMG,
	},
}

func measureMG(env *experiments.Env, t *kernel.Task, tr *trial) {
	node0 := env.C.Node(0)
	done := func() bool { return node0.FS.Exists(mgVerify) }
	restartAt := map[int]bool{}
	for _, k := range mgRestartAfter {
		restartAt[k] = true
		tr.plan(mgRestartOp(k))
	}
	tr.plan("output check")
	for len(tr.rounds) < mgMaxRound && !done() {
		if waitUntil(t, mgPeriod, done) {
			break
		}
		r := checkpoint(env, t, tr)
		if r == nil {
			break
		}
		if restartAt[len(tr.rounds)] {
			t.Idle(mgRollback)
			killAt := t.Now()
			env.Sys.KillManaged()
			h := time.Now()
			st, err := env.Sys.RestartAll(t, r, nil)
			tr.rstHost += time.Since(h)
			if !tr.op(mgRestartOp(len(tr.rounds)), err == nil, err) {
				break
			}
			tr.restarts = append(tr.restarts, st)
			rec := t.Now().Sub(killAt)
			tr.recovery = append(tr.recovery, rec)
			// Rolled-back work: everything the job computed after the
			// round it restarted from.
			tr.lost += rec + killAt.Sub(r.End)
		}
	}
	for !done() {
		t.Idle(50 * time.Millisecond)
	}
	spec, _ := npb.SpecFor("nas-mg")
	want := (&npb.Kernel{Spec: spec}).FormatVerify(mgNodes * mgPerNode)
	got := ""
	if ino, err := node0.FS.ReadFile(mgVerify); err == nil {
		got = string(ino.Data)
	}
	tr.op("output check", got == want, fmt.Errorf("verify line %q", got))
	// No line at all is a failed operation; a different line is a wrong
	// answer.
	if got != "" && got != want {
		tr.wrong = append(tr.wrong, fmt.Sprintf("verify line %q, want %q", got, want))
	}
}

// --- store-failover --------------------------------------------------

const (
	sfProcs    = 4
	sfMinMB    = 248 // heap sizes are drawn from [sfMinMB, sfMaxMB]
	sfMaxMB    = 264
	sfDirty    = 0.10
	sfRounds   = 16
	sfKillAt   = 8  // the node dies after this many rounds
	sfMoveAt   = 12 // after this many rounds one process migrates
	sfVictim   = 2
	sfMover    = 1           // its process moves to node 0, which holds no replica of it
	sfInterval = time.Second // the application runs between rounds
	sfDeadline = 120 * time.Second
)

var storeFailover = workload{
	name: "store-failover",
	why:  "dirty-heap processes on the replicated chunk store, a node killed and recovered, then one process migrated: store, replication and fetch dominate; no MPI",
	sc: scenario{
		nodes:    sfProcs + 1,
		cfg:      dmtcp.Config{Compress: true, Store: true, StoreKeep: 3, ReplicaFactor: 2},
		deadline: sfDeadline,
		launch: func(env *experiments.Env, t *kernel.Task, seed int64) error {
			// Heap sizes come from the trial seed, so recovery time (set
			// by the victim's image) varies with the inputs, not only
			// with the model's jitter.
			rng := rand.New(rand.NewSource(seed))
			mbs := make([]int, sfProcs)
			for i := range mbs {
				mbs[i] = sfMinMB + rng.Intn(sfMaxMB-sfMinMB+1)
			}
			return launchDirty(env, t, 1, mbs)
		},
		measure: measureFailover,
	},
}

func measureFailover(env *experiments.Env, t *kernel.Task, tr *trial) {
	planRounds(tr, sfRounds)
	tr.plan("recover", "round after recover", "migrate")
	for i := 0; i < sfRounds; i++ {
		if i == sfMoveAt && !migrate(env, t, tr) {
			return
		}
		if i == sfKillAt {
			killAt := t.Now()
			env.C.KillNode(sfVictim)
			h := time.Now()
			rec, err := env.Sys.Recover(t)
			tr.rstHost += time.Since(h)
			if !tr.op("recover", err == nil, err) {
				return
			}
			tr.restarts = append(tr.restarts, rec.Stats)
			tr.recovery = append(tr.recovery, rec.Took)
			tr.lost += rec.Took + killAt.Sub(rec.Round.End)
			if !tr.op("processes run after recover", runsAll(env, sfProcs), fmt.Errorf("%d of %d processes live", len(env.Sys.ManagedProcesses()), sfProcs)) {
				return
			}
		}
		r := checkpoint(env, t, tr)
		if r == nil {
			return
		}
		if i == sfKillAt {
			tr.op("round after recover", r.NumProcs == tr.rounds[0].NumProcs,
				fmt.Errorf("round covers %d of %d processes", r.NumProcs, tr.rounds[0].NumProcs))
		}
		dirty(env, sfDirty, i)
		t.Idle(sfInterval)
	}
}

// migrate restarts every process from the newest round, moving node
// sfMover's process to node 0: its chunks must come over the network
// from a replica holder.
func migrate(env *experiments.Env, t *kernel.Task, tr *trial) bool {
	r := tr.rounds[len(tr.rounds)-1]
	env.Sys.KillManaged()
	h := time.Now()
	st, err := env.Sys.RestartAll(t, r, dmtcp.Placement{env.C.Node(sfMover).Hostname: 0})
	tr.rstHost += time.Since(h)
	if !tr.op("migrate", err == nil, err) {
		return false
	}
	tr.restarts = append(tr.restarts, st)
	return tr.op("processes run after migrate", runsAll(env, sfProcs),
		fmt.Errorf("%d of %d processes live", len(env.Sys.ManagedProcesses()), sfProcs))
}

// --- coord-ha ----------------------------------------------------------

const (
	chNodes    = 16
	chMB       = 4
	chRounds   = 24
	chKillAt   = 12 // the leader's node dies during this round
	chKillLag  = 3 * time.Millisecond
	chDeadline = 120 * time.Second
	chLeader   = 1 // node 0 runs the orchestration task and must survive
	chInterval = 500 * time.Millisecond
)

var coordHA = workload{
	name: "coord-ha",
	why:  "16 nodes, tiny images, two standby coordinators, leader node killed mid-round: barriers and the coordinator journal set round latency",
	sc: scenario{
		nodes: chNodes,
		cfg: dmtcp.Config{CoordNode: chLeader, Compress: true, Store: true, StoreKeep: 3,
			ReplicaFactor: 2, CoordStandbys: 2},
		deadline: chDeadline,
		launch: func(env *experiments.Env, t *kernel.Task, _ int64) error {
			mbs := make([]int, chNodes-chLeader-1)
			for i := range mbs {
				mbs[i] = chMB
			}
			return launchDirty(env, t, chLeader+1, mbs)
		},
		measure: measureCoordHA,
	},
}

func measureCoordHA(env *experiments.Env, t *kernel.Task, tr *trial) {
	planRounds(tr, chRounds)
	tr.plan("takeover")
	for i := 0; i < chRounds; i++ {
		if i != chKillAt {
			if checkpoint(env, t, tr) == nil {
				return
			}
		} else if !killLeaderMidRound(env, t, tr) {
			return
		}
		dirty(env, sfDirty, i)
		t.Idle(chInterval)
	}
	want := tr.rounds[0].NumProcs
	for _, r := range tr.rounds {
		if r.NumProcs != want {
			tr.op("constant membership", false, fmt.Errorf("round %d covers %d of %d processes", r.Index, r.NumProcs, want))
			return
		}
	}
	tr.op("constant membership", true, nil)
}

// killLeaderMidRound requests a round, kills the leader's node while
// it runs, and waits for a standby to take over and finish the round.
func killLeaderMidRound(env *experiments.Env, t *kernel.Task, tr *trial) bool {
	var round *dmtcp.CkptRound
	var cerr error
	done := false
	t.P.SpawnTask("ckpt-request", false, func(rt *kernel.Task) {
		round, cerr = env.Sys.Checkpoint(rt)
		done = true
	})
	t.Idle(chKillLag)
	old := env.Sys.Coord
	killAt := t.Now()
	env.C.KillNode(chLeader)
	h := time.Now()
	for env.Sys.Coord == old || env.Sys.Coord.Node.Down {
		t.Idle(time.Millisecond)
	}
	tr.takeover = append(tr.takeover, t.Now().Sub(killAt))
	tr.op("takeover", true, nil)
	for !done {
		t.Idle(time.Millisecond)
	}
	tr.ckptHost += time.Since(h)
	if !tr.op(checkpointOp(len(tr.rounds)+1), cerr == nil && round != nil, cerr) {
		return false
	}
	tr.rounds = append(tr.rounds, round)
	tr.recovery = append(tr.recovery, round.End.Sub(killAt))
	tr.lost += round.Stages.Total
	return true
}

// --- helpers -----------------------------------------------------------

// planRounds announces a fixed schedule's checkpoint requests, so the
// ones a wedged run never reaches count as failed.
func planRounds(tr *trial, n int) {
	for i := 1; i <= n; i++ {
		tr.plan(checkpointOp(i))
	}
}

// launchDirty starts one dirty-heap process per entry of mbs (its heap
// in MB), one per node from node first, and waits until all are
// checkpointable.
func launchDirty(env *experiments.Env, t *kernel.Task, first int, mbs []int) error {
	for i, mb := range mbs {
		if _, err := env.Sys.Launch(kernel.NodeID(first+i), experiments.DirtyAppName, strconv.Itoa(mb)); err != nil {
			return err
		}
	}
	if err := waitManaged(env, t, len(mbs)); err != nil {
		return err
	}
	t.Idle(200 * time.Millisecond)
	return nil
}

// dirty rewrites frac of every process's heap; round rotates the set.
func dirty(env *experiments.Env, frac float64, round int) {
	for _, p := range env.Sys.ManagedProcesses() {
		experiments.TouchHeap(p, frac, uint64(round+1))
	}
}

// runsAll reports whether n managed processes are live on live nodes.
func runsAll(env *experiments.Env, n int) bool {
	live := 0
	for _, p := range env.Sys.ManagedProcesses() {
		if !p.Dead && !p.Zombie && !p.Node.Down {
			live++
		}
	}
	return live == n
}

// waitManaged polls until n checkpointable processes exist, for at
// most 10 s of virtual time.
func waitManaged(env *experiments.Env, t *kernel.Task, n int) error {
	deadline := t.Now().Add(10 * time.Second)
	for env.Sys.NumManaged() < n {
		if t.Now() >= deadline {
			return fmt.Errorf("only %d of %d processes started", env.Sys.NumManaged(), n)
		}
		t.Idle(5 * time.Millisecond)
	}
	return nil
}

// The orchestration task waits with Task.Idle, which takes no core from the
// workload's processes on node 0.

// waitUntil waits d of virtual time in short steps, returning early
// (true) once cond holds.
func waitUntil(t *kernel.Task, d time.Duration, cond func() bool) bool {
	end := t.Now().Add(d)
	for t.Now() < end {
		if cond() {
			return true
		}
		step := 25 * time.Millisecond
		if rem := end.Sub(t.Now()); rem < step {
			step = rem
		}
		t.Idle(step)
	}
	return cond()
}
