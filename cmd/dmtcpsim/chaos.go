package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"time"

	dmtcpsim "repro"
	"repro/internal/store"
)

// chaosScenario walks one full chaos schedule — the four fault kinds
// the fault-injection plane models — against an HA deployment, and
// narrates what the robustness machinery does about each: a
// leader-isolating partition (standby promotes via journal-silence
// detection, resumes the round, the heal converges the deposed leader),
// lossy slow links (a round still commits through retransmission
// backoff), silent bit rot (the background scrubber detects and
// quarantines it, repair re-sources the generation), and node death
// (recovery restarts the workload from replicated storage).
func chaosScenario(o scenOpts) {
	nodes := o.nodes
	if nodes < 6 {
		nodes = 6
	}
	s := dmtcpsim.New(o.options(nodes,
		dmtcpsim.Config{CoordNode: 1, Compress: true, Store: true,
			StoreKeep: 3, ReplicaFactor: 2, CoordStandbys: 2}))
	s.C.Params.ScrubInterval = 200 * time.Millisecond
	s.Run(func(t *dmtcpsim.Task) {
		fmt.Println("chaos schedule: leader partition, lossy links, bit rot, node death ...")
		if _, err := s.Launch(4, dmtcpsim.DirtyAppName, "96"); err != nil {
			panic(err)
		}
		t.Compute(300 * time.Millisecond)
		if _, err := s.Checkpoint(t); err != nil {
			panic(err)
		}
		s.Sys.Replica.WaitIdle(t)

		// Fault 1: cut the leader's host off mid-round.
		co := s.Sys.Coord
		preRounds := len(co.Rounds())
		fmt.Printf("\n[1/4] partitioning leader %s away mid-round ...\n", co.Node.Hostname)
		req := checkpointAsync(s, t)
		took := isolateLeader(s, t, req)
		fmt.Printf("      standby on %s promoted itself in %v (journal silence; the leader is alive but unreachable)\n",
			s.Sys.Coord.Node.Hostname, took.Round(time.Millisecond))
		req.wait(t)
		fmt.Printf("      round resumed and completed under the new leader; rounds lost: %d\n",
			preRounds+1-len(s.Sys.Coord.Rounds()))
		lead := s.Sys.Coord
		for !co.Standby || co.Mach.Epoch() != lead.Mach.Epoch() {
			t.Compute(10 * time.Millisecond)
		}
		fmt.Printf("      deposed leader stepped down and converged onto epoch %d (%d fenced journal writes rejected)\n",
			lead.Mach.Epoch(), s.Sys.Replica.Stats.FencedWrites)
		s.Sys.Replica.WaitIdle(t)

		// Fault 2: every link drops and delays frames; TCP-style
		// retransmission backoff delays the round but loses nothing.
		fmt.Println("[2/4] making every link lossy (3% drop, +500us latency) and checkpointing through it ...")
		id := s.C.InjectFault(dmtcpsim.FaultRule{
			Drop: 0.03, ExtraLatency: 500 * time.Microsecond, JitterPct: 0.3})
		round, err := s.Checkpoint(t)
		s.C.HealFault(id)
		if err != nil {
			panic(err)
		}
		fmt.Printf("      round committed in %v across the flaky network\n",
			round.Stages.Total.Round(time.Millisecond))
		s.Sys.Replica.WaitIdle(t)

		// Fault 3: flip one bit in a replica holder's chunk store.  No
		// reader ever touches it — the background scrubber must find it.
		co = s.Sys.Coord
		victim := expendableHolder(s)
		hstore := store.Open(s.C.LookupHost(victim), store.Config{Root: s.Sys.StoreRoot()})
		hash, ok := hstore.CorruptRandomChunk(rand.New(rand.NewSource(1)))
		if !ok {
			panic("nothing to corrupt on " + victim)
		}
		fmt.Printf("[3/4] flipped one bit in chunk %s on %s; waiting for the scrubber ...\n", hash[:12], victim)
		pre := s.Sys.Replica.Stats.ScrubCorrupt
		flipAt := t.Now()
		for s.Sys.Replica.Stats.ScrubCorrupt == pre {
			t.Compute(20 * time.Millisecond)
		}
		fmt.Printf("      scrub detected and quarantined it in %v (no reader involved)\n",
			t.Now().Sub(flipAt).Round(time.Millisecond))
		t.Compute(100 * time.Millisecond)
		for !co.RepairIdle() {
			t.Compute(20 * time.Millisecond)
		}
		fmt.Printf("      repair re-sourced the generation from a clean holder (%d quarantined object(s) on %s)\n",
			len(hstore.Quarantined()), victim)

		// Fault 4: the workload's node loses power; recovery rolls back
		// to the newest fully-replicated round on a surviving holder.
		procs := s.Sys.ManagedProcesses()
		if len(procs) == 0 {
			panic("workload lost before the node-death fault")
		}
		deadNode := procs[0].Node
		fmt.Printf("[4/4] killing workload node %s ...\n", deadNode.Hostname)
		s.KillNode(deadNode.ID)
		rec, err := s.Sys.Recover(t)
		if err != nil {
			panic(err)
		}
		fmt.Printf("      recovered %d process(es) on %v in %v (MTTR: detect + rollback + fetch + restart)\n",
			rec.Procs, rec.Targets[deadNode.Hostname], rec.Took.Round(time.Millisecond))

		// Closing round: the cluster must be fully functional again.
		t.Compute(100 * time.Millisecond)
		if _, err := s.Checkpoint(t); err != nil {
			panic(err)
		}
		fmt.Println("\nclosing checkpoint round clean: the schedule survived with zero rounds lost")
	})
}

// partitionHeal runs the ticker workload twice under one checkpoint
// round: a control run with no faults, and a run whose leader is
// partitioned away mid-round.  A standby on the majority side
// promotes itself and resumes the round, and the heal converges the
// deposed leader by truncate-and-replay.  The data plane must never
// notice: the two outputs, checksum line included, are byte-identical.
func partitionHeal(o scenOpts) {
	fmt.Println("control run: 300 ticks, one checkpoint round, no faults")
	control := tickerRun(o, false)
	fmt.Printf("  %s\n", lastLine(control))
	fmt.Println("chaos run: same schedule with the leader partitioned mid-round")
	chaos := tickerRun(o, true)
	fmt.Printf("  %s\n", lastLine(chaos))
	if chaos == control {
		fmt.Println("outputs are byte-identical: zero ticks lost, zero replayed, checksums match")
	} else {
		fmt.Println("OUTPUT DIVERGED: the partition perturbed the data plane")
	}
}

func lastLine(out string) string {
	out = strings.TrimSuffix(out, "\n")
	return out[strings.LastIndexByte(out, '\n')+1:]
}

// tickerRun drives one partition-heal run: the ticker on node04, one
// cluster-wide checkpoint, and — when cut is true — the leader
// isolated mid-round.  It returns the ticker's complete output.
func tickerRun(o scenOpts, cut bool) string {
	s := dmtcpsim.New(o.options(6,
		dmtcpsim.Config{CoordNode: 1, Compress: true, Store: true,
			StoreKeep: 3, ReplicaFactor: 2, CoordStandbys: 2}))
	s.Register("ticker", ticker{})
	const out = "/san/out/ticker"
	var final string
	s.Run(func(t *dmtcpsim.Task) {
		if _, err := s.Launch(4, "ticker", "300", out); err != nil {
			panic(err)
		}
		t.Compute(50 * time.Millisecond)
		req := checkpointAsync(s, t)
		if cut {
			co := s.Sys.Coord
			took := isolateLeader(s, t, req)
			fmt.Printf("  leader %s cut mid-round; standby %s promoted itself in %v; partition healed\n",
				co.Node.Hostname, s.Sys.Coord.Node.Hostname, took.Round(time.Millisecond))
		}
		req.wait(t)
		for {
			if ino, err := s.C.Node(0).FS.ReadFile(out); err == nil && bytes.Contains(ino.Data, []byte("done")) {
				final = string(ino.Data)
				return
			}
			t.Compute(50 * time.Millisecond)
		}
	})
	return final
}

// ticker appends one line per iteration to a shared file; its control
// state (the next iteration) lives in process memory, so any replayed
// or lost work after a checkpoint shows up as duplicate or missing
// ticks.  The closing line is an FNV-64a checksum of the whole log.
type ticker struct{}

func (ticker) Main(t *dmtcpsim.Task, args []string) {
	n, _ := strconv.Atoi(args[0])
	t.MapAnon("[heap]", 32<<20, dmtcpsim.MemClass{Entropy: 0.45, ZeroFrac: 0.2})
	tick(t, args[1], 0, n)
}

func (ticker) Restore(t *dmtcpsim.Task, state []byte) {
	next := int(binary.BigEndian.Uint64(state))
	n := int(binary.BigEndian.Uint64(state[8:]))
	tick(t, string(state[16:]), next, n)
}

func tick(t *dmtcpsim.Task, out string, from, n int) {
	fs := t.P.Node.FS
	appendLine := func(line string) {
		var prev []byte
		if ino, err := fs.ReadFile(out); err == nil {
			prev = ino.Data
		}
		fs.WriteFile(out, append(append([]byte(nil), prev...), line+"\n"...), 0)
	}
	for i := from; i < n; i++ {
		t.Compute(5 * time.Millisecond)
		// Tick append and state save are one critical section: a
		// checkpoint lands between iterations, never between the
		// append and the counter update.
		t.BeginCritical()
		appendLine(fmt.Sprintf("tick %d", i))
		state := make([]byte, 16, 16+len(out))
		binary.BigEndian.PutUint64(state, uint64(i+1))
		binary.BigEndian.PutUint64(state[8:], uint64(n))
		t.P.SaveState(append(state, out...))
		t.EndCritical()
	}
	h := fnv.New64a()
	if ino, err := fs.ReadFile(out); err == nil {
		h.Write(ino.Data)
	}
	appendLine(fmt.Sprintf("done %016x", h.Sum64()))
}

// pendingRound is a checkpoint round requested from a helper task, so
// the scenario task can inject a fault while the round is in flight.
type pendingRound struct {
	round *dmtcpsim.CkptRound
	err   error
	done  bool
}

func checkpointAsync(s *dmtcpsim.Sim, t *dmtcpsim.Task) *pendingRound {
	req := &pendingRound{}
	t.P.SpawnTask("req", false, func(rt *dmtcpsim.Task) {
		req.round, req.err = s.Checkpoint(rt)
		req.done = true
	})
	return req
}

// wait polls until the round completes and panics if it failed.
func (req *pendingRound) wait(t *dmtcpsim.Task) *dmtcpsim.CkptRound {
	for !req.done {
		t.Compute(10 * time.Millisecond)
	}
	if req.err != nil {
		panic(req.err)
	}
	return req.round
}

// isolateLeader partitions the leader's host away once req's round is
// in flight.  The node stays alive, so only the standbys'
// journal-silence watchdog can detect the loss and elect on the
// majority side.  It heals the partition after the promotion and
// returns how long the promotion took.
func isolateLeader(s *dmtcpsim.Sim, t *dmtcpsim.Task, req *pendingRound) time.Duration {
	co := s.Sys.Coord
	for !req.done && co.Mach.State().Round == nil {
		t.Compute(time.Millisecond)
	}
	cutAt := t.Now()
	id := s.C.IsolateHost(co.Node.Hostname)
	for s.Sys.Coord == co && !req.done {
		t.Compute(5 * time.Millisecond)
	}
	took := t.Now().Sub(cutAt)
	s.C.HealFault(id)
	return took
}

// expendableHolder picks a live replica holder that is neither the
// scenario task's node00, the leader's host nor the image's own host.
func expendableHolder(s *dmtcpsim.Sim) string {
	co := s.Sys.Coord
	st := co.Mach.State()
	victim := ""
	for _, name := range sortedKeys(st.Placement) {
		pi := st.Placement[name]
		for _, h := range pi.HolderHosts() {
			n := s.C.LookupHost(h)
			if n == nil || n.Down || h == "node00" || h == co.Node.Hostname || h == pi.Host {
				continue
			}
			victim = h
		}
	}
	if victim == "" {
		panic("no expendable replica holder found")
	}
	return victim
}
