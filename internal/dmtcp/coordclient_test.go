package dmtcp

import (
	"testing"
	"time"

	"repro/internal/kernel"
)

// TestRoundRequestedDuringRestartBarrierCompletes pins the DoCkpt stash
// of the one barrier wait: a round requested while a restored process
// waits at a restart group barrier reaches that process's manager
// mid-wait.  The wait must keep the request for the manager loop, or
// the round never gets its arrival and the checkpoint blocks forever.
func TestRoundRequestedDuringRestartBarrierCompletes(t *testing.T) {
	e := newEnv(t, 2, Config{Compress: true})
	e.drive(t, func(task *kernel.Task) {
		e.c.Register("bigdirty", bigDirty{})
		e.sys.Launch(0, "bigdirty", "4")
		e.sys.Launch(1, "bigdirty", "256")
		task.Compute(50 * time.Millisecond)
		round, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Error(err)
			return
		}
		e.sys.KillManaged()
		restarted := false
		task.P.SpawnTask("restart", false, func(rt *kernel.Task) {
			if _, err := e.sys.RestartAll(rt, round, nil); err != nil {
				t.Errorf("restart: %v", err)
			}
			restarted = true
		})
		// The small process re-registers long before the large one has
		// its memory back; it then waits at the r-mem group barrier.
		for e.sys.NumManaged() != 1 || e.sys.Coord.NumClients() != 1 {
			task.Idle(time.Millisecond)
		}
		var got *CkptRound
		var ckptErr error
		checkpointed := false
		task.P.SpawnTask("ckpt", false, func(ct *kernel.Task) {
			got, ckptErr = e.sys.Checkpoint(ct)
			checkpointed = true
		})
		deadline := task.Now().Add(30 * time.Second)
		for !(checkpointed && restarted) && task.Now() < deadline {
			task.Idle(10 * time.Millisecond)
		}
		switch {
		case !restarted:
			t.Error("RestartAll still blocked 30 s after the round request")
		case !checkpointed:
			t.Error("round requested during the restart barrier wedged")
		case ckptErr != nil:
			t.Error(ckptErr)
		case got.NumProcs != 1:
			t.Errorf("round procs = %d, want 1 (only the small process was registered)", got.NumProcs)
		}
	})
}

// TestRefusedRequestsLeakNoDescriptor pins the one dial's failure path:
// a checkpoint request or status query the coordinator refuses closes
// its protected socket, so a driver retrying against a dead coordinator
// does not grow its descriptor table.
func TestRefusedRequestsLeakNoDescriptor(t *testing.T) {
	e := newEnv(t, 2, Config{CoordNode: 1})
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(0, "counter", "50000", "/out/refused")
		task.Compute(50 * time.Millisecond)
		aware := Aware(e.sys.ManagedProcesses()[0])
		before := len(task.P.FDs())
		e.c.KillNode(1)
		for i := 0; i < 3; i++ {
			if _, err := e.sys.Checkpoint(task); err == nil {
				t.Error("checkpoint succeeded with the coordinator dead")
			}
			if _, _, err := aware.Status(task); err == nil {
				t.Error("status succeeded with the coordinator dead")
			}
		}
		if after := len(task.P.FDs()); after != before {
			t.Errorf("driver descriptors %d -> %d after refused requests", before, after)
		}
	})
}
