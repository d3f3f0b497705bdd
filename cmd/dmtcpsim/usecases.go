package main

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"time"

	dmtcpsim "repro"
	"repro/internal/apps"
	"repro/internal/mpi"
)

// The paper's §1.1 use cases, told as runnable sessions against the
// public API.

// quickstart writes a checkpointable program against the public API,
// runs it under DMTCP, checkpoints it mid-flight, kills it, and
// restarts it from the image: the program continues exactly where it
// stopped.
func quickstart(o scenOpts) {
	s := dmtcpsim.New(o.options(o.nodes, dmtcpsim.Config{Compress: true}))
	s.Register("primes", primeCounter{})
	s.Run(func(t *dmtcpsim.Task) {
		fmt.Println("dmtcp_checkpoint primes")
		if _, err := s.Launch(0, "primes"); err != nil {
			panic(err)
		}
		t.Compute(150 * time.Millisecond)
		fmt.Println("dmtcp_command --checkpoint")
		round, err := s.Checkpoint(t)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  checkpointed in %v, image %d KB\n",
			round.Stages.Total.Round(time.Millisecond), round.Bytes>>10)
		fmt.Printf("restart script:\n%s", dmtcpsim.RestartScript(round))
		fmt.Println("killing the process (simulated crash)")
		s.KillAll()
		fmt.Println("dmtcp_restart ckpt_primes_*.dmtcp.gz")
		stats, err := s.Restart(t, round, nil)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  restarted in %v\n", stats.Total.Round(time.Millisecond))
		fs := s.C.Node(0).FS
		for i := 0; i < 200 && !fs.Exists("/out/prime"); i++ {
			t.Compute(50 * time.Millisecond)
		}
		if ino, err := fs.ReadFile("/out/prime"); err == nil {
			fmt.Printf("result after restart: 2000th prime = %s (expected 17389)\n", ino.Data)
		} else {
			fmt.Println("the restored program did not finish in time")
		}
	})
}

// primeCounter counts primes; its control state (the next candidate
// and the count so far) lives in process memory via SaveState, which
// is the contract that lets DMTCP restore it transparently.
type primeCounter struct{}

func (primeCounter) Main(t *dmtcpsim.Task, _ []string) { countPrimes(t, 2, 0) }

func (primeCounter) Restore(t *dmtcpsim.Task, state []byte) {
	n, found := binary.BigEndian.Uint64(state), binary.BigEndian.Uint64(state[8:])
	fmt.Printf("  [restored at n=%d, %d primes found]\n", n, found)
	countPrimes(t, n, found)
}

func countPrimes(t *dmtcpsim.Task, n, found uint64) {
	for ; found < 2000; n++ {
		t.Compute(200 * time.Microsecond) // the "work"
		if isPrime(n) {
			found++
		}
		var st [16]byte
		binary.BigEndian.PutUint64(st[:], n+1)
		binary.BigEndian.PutUint64(st[8:], found)
		t.P.SaveState(st[:])
	}
	fmt.Printf("  [done: 2000th prime is %d]\n", n-1)
	t.P.Node.FS.WriteFile("/out/prime", []byte(fmt.Sprint(n-1)), 0)
	for {
		t.Compute(time.Second)
	}
}

func isPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for d := uint64(2); d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// migrate is the paper's headline use case (§1): run the
// CPU-intensive first phase of a ParGeant4 computation on the
// cluster, checkpoint it to shared storage, and restart every process
// on a single "laptop" node for interactive analysis.
func migrate(o scenOpts) {
	nodes := o.nodes
	// Images go to the central SAN so the laptop can read them all.
	s := dmtcpsim.New(o.options(nodes,
		dmtcpsim.Config{Compress: true, CkptDir: "/san/ckpt"}))
	for _, n := range s.C.Nodes() {
		n.SANDirect = true // small cluster: every node on the SAN fabric
	}
	s.Run(func(t *dmtcpsim.Task) {
		np := nodes * 4
		fmt.Printf("phase 1: ParGeant4 with %d compute processes on %d nodes\n", np, nodes)
		boot, err := s.Launch(0, "mpdboot", strconv.Itoa(nodes))
		if err != nil {
			panic(err)
		}
		t.WatchExit(boot)
		if _, err := s.Launch(0, "mpiexec", strconv.Itoa(np), "4", "0",
			strconv.Itoa(mpi.BasePort), "pargeant4", "1000000"); err != nil {
			panic(err)
		}
		t.Compute(time.Second) // the CPU-intensive phase
		round, err := s.Checkpoint(t)
		if err != nil {
			panic(err)
		}
		fmt.Printf("checkpointed %d processes (%d compute + resource managers) in %v\n",
			round.NumProcs, np, round.Stages.Total.Round(time.Millisecond))
		fmt.Println("shutting the cluster down; flying home ...")
		s.KillAll()
		const laptop = dmtcpsim.NodeID(0)
		place := dmtcpsim.Placement{}
		for _, img := range round.Images {
			place[img.Host] = laptop
		}
		stats, err := s.Restart(t, round, place)
		if err != nil {
			panic(err)
		}
		fmt.Printf("restarted everything on node%02d in %v\n", laptop, stats.Total.Round(time.Millisecond))
		t.Compute(100 * time.Millisecond)
		counts := map[string]int{}
		for _, p := range s.Sys.ManagedProcesses() {
			counts[p.ProgName]++
			if p.Node.ID != laptop {
				panic(p.ProgName + " escaped the laptop")
			}
		}
		// The per-node mpd daemons contend for one port once
		// consolidated, as they would under real DMTCP on one host;
		// the computation itself is intact.
		fmt.Println("process tree on the laptop:")
		for _, name := range []string{"pargeant4", "pmi_proxy", "mpd", "mpiexec"} {
			fmt.Printf("  %-10s ×%d\n", name, counts[name])
		}
	})
}

// desktop is use cases 1 and 2 (§1.1): DMTCP as a universal
// "save/restore workspace" and "undump" facility.  A whole
// interactive session (MATLAB, a VNC server with its window manager
// and an xterm, and vim with a cscope child over a promoted pipe) is
// checkpointed at intervals, torn down, and brought back as it was.
func desktop(o scenOpts) {
	s := dmtcpsim.New(o.options(1, dmtcpsim.Config{
		Compress: true,
		Interval: 4 * time.Second, // dmtcp_checkpoint --interval 4
	}))
	s.Run(func(t *dmtcpsim.Task) {
		fmt.Println("opening the workspace: matlab, tightvnc+twm, vim/cscope")
		for _, app := range []string{"matlab", "tightvnc+twm", "vim/cscope"} {
			if _, err := s.Launch(0, apps.ProgName(app)); err != nil {
				panic(err)
			}
		}
		// Interval checkpoints fire on their own; matlab alone takes
		// about 3 s per checkpoint, so give them room.
		t.Compute(15 * time.Second)
		fmt.Printf("interval checkpointing took %d automatic checkpoints\n", len(s.Sys.Coord.Rounds()))
		round := s.Sys.Coord.LastRound()
		if round == nil {
			panic("no completed checkpoint rounds")
		}
		fmt.Printf("last checkpoint: %d processes, %d MB compressed, %v\n",
			round.NumProcs, round.Bytes>>20, round.Stages.Total.Round(time.Millisecond))
		fmt.Println("logging out (killing the whole session)")
		s.KillAll()
		fmt.Println("restoring the workspace from the last checkpoint")
		stats, err := s.Restart(t, round, nil)
		if err != nil {
			panic(err)
		}
		fmt.Printf("workspace back in %v\n", stats.Total.Round(time.Millisecond))
		t.Compute(200 * time.Millisecond)
		fmt.Println("restored processes:")
		for _, p := range s.Sys.ManagedProcesses() {
			fmt.Printf("  %-24s pid=%d (virtual %d)\n",
				p.ProgName, p.Pid, dmtcpsim.Aware(p).VirtPid())
		}
	})
}

// deadlockRevert is use case 8 (§1.1): "upon detecting distributed
// deadlock, automatically revert to an earlier checkpoint image and
// restart in slower, 'safe mode', until beyond the danger point."
// Two processes take periodic checkpoints while exchanging messages
// and deadlock at a known step.  A watchdog notices the lack of
// progress, kills the computation, plants a safe-mode flag and
// restarts from the last checkpoint; the restored processes see the
// flag, serialize the risky section, and finish.
func deadlockRevert(o scenOpts) {
	s := dmtcpsim.New(o.options(2, dmtcpsim.Config{Compress: true}))
	s.Register("lockapp", lockApp{})
	fs := s.C.Node(0).FS
	progress := func() int {
		ino, err := fs.ReadFile(lockProgress)
		if err != nil {
			return 0
		}
		n, _ := strconv.Atoi(string(ino.Data))
		return n
	}
	s.Run(func(t *dmtcpsim.Task) {
		for id := 0; id < 2; id++ {
			if _, err := s.Launch(dmtcpsim.NodeID(id), "lockapp", strconv.Itoa(id)); err != nil {
				panic(err)
			}
		}
		t.Compute(100 * time.Millisecond)
		var last *dmtcpsim.CkptRound
		stall := 0
		for !fs.Exists("/out/finished") {
			before := progress()
			round, err := s.Checkpoint(t)
			if err != nil {
				panic(err)
			}
			t.Compute(300 * time.Millisecond)
			after := progress()
			if after > before {
				last, stall = round, 0
				fmt.Printf("watchdog: progress %d/%d, checkpoint taken\n", after, lockSteps)
				continue
			}
			if stall++; stall < 2 || last == nil {
				continue
			}
			fmt.Printf("watchdog: DEADLOCK at step %d — reverting to last checkpoint in safe mode\n", after)
			s.KillAll()
			for n := 0; n < 2; n++ {
				s.C.Node(dmtcpsim.NodeID(n)).FS.WriteFile(lockSafeFlag, []byte("1"), 0)
			}
			if _, err := s.Restart(t, last, nil); err != nil {
				panic(err)
			}
			stall = 0
		}
		fmt.Printf("computation finished: %d/%d steps (survived the deadlock)\n", progress(), lockSteps)
	})
}

const (
	lockSteps    = 40
	lockTrap     = 25
	lockPort     = 9500
	lockSafeFlag = "/etc/safe-mode"
	lockProgress = "/out/progress"
)

// lockApp is a pair of processes that, at step lockTrap, grab two
// shared "locks" in opposite orders unless safe mode is on.
type lockApp struct{}

func (lockApp) Main(t *dmtcpsim.Task, args []string) {
	id, _ := strconv.Atoi(args[0])
	var fd int
	if id == 0 {
		lfd, err := t.ListenTCP(lockPort)
		if err != nil {
			panic(err)
		}
		if fd, err = t.Accept(lfd); err != nil {
			return
		}
	} else {
		fd = t.Socket()
		for t.Connect(fd, dmtcpsim.Addr{Host: "node00", Port: lockPort}) != nil {
			t.Close(fd)
			t.Compute(time.Millisecond)
			fd = t.Socket()
		}
	}
	lockRun(t, id, fd, 0)
}

func (lockApp) Restore(t *dmtcpsim.Task, state []byte) {
	lockRun(t, int(binary.BigEndian.Uint32(state)), int(binary.BigEndian.Uint32(state[4:])),
		int(binary.BigEndian.Uint32(state[8:])))
}

func lockRun(t *dmtcpsim.Task, id, fd, step int) {
	safe := t.P.Node.FS.Exists(lockSafeFlag)
	// recv and send are one token exchange; the first to send is the
	// lock order.
	recv := func() bool { _, err := t.RecvN(fd, 3); return err == nil }
	send := func() { t.Send(fd, []byte("tok")) }
	for ; step < lockSteps; step++ {
		t.Compute(20 * time.Millisecond)
		ok := true
		switch {
		case step == lockTrap && !safe:
			// The bug: both sides wait for the peer's token before
			// sending their own — a classic cyclic wait.
			if _, err := t.Recv(fd, 16); err != nil {
				return
			}
			send()
		case id == 0:
			send()
			ok = recv()
		default:
			if ok = recv(); ok {
				send()
			}
		}
		if !ok {
			return
		}
		t.BeginCritical()
		var st [12]byte
		binary.BigEndian.PutUint32(st[:], uint32(id))
		binary.BigEndian.PutUint32(st[4:], uint32(fd))
		binary.BigEndian.PutUint32(st[8:], uint32(step+1))
		t.P.SaveState(st[:])
		if id == 0 {
			t.P.Node.FS.WriteFile(lockProgress, []byte(strconv.Itoa(step+1)), 0)
		}
		t.EndCritical()
	}
	if id == 0 {
		t.P.Node.FS.WriteFile("/out/finished", []byte("ok"), 0)
	}
	for {
		t.Compute(time.Second)
	}
}
