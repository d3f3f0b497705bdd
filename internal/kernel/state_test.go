package kernel

import (
	"bytes"
	"reflect"
	"testing"
)

// stateSizes covers growth past a tracking chunk, shrinking and an
// empty state, so the area's high-water mark and versions both move.
var stateSizes = []int{10, 3000, int(CkptChunkBytes) + 17, 40, 0, 2*int(CkptChunkBytes) + 1, 5}

func stateBytes(n, salt int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + salt)
	}
	return b
}

// appendEnc returns an encoder producing b, the deferred form of
// SaveState(b).
func appendEnc(b []byte) func([]byte) []byte {
	return func(dst []byte) []byte { return append(dst, b...) }
}

func TestSaveStateFuncAccountsLikeSaveState(t *testing.T) {
	eager := &Process{Mem: NewAddressSpace()}
	lazy := &Process{Mem: NewAddressSpace()}
	for i, n := range stateSizes {
		b := stateBytes(n, i)
		eager.SaveState(b)
		lazy.SaveStateFunc(n, appendEnc(b))
		ea, la := eager.Mem.Area(stateArea), lazy.Mem.Area(stateArea)
		if ea.Bytes != la.Bytes {
			t.Fatalf("write %d: Bytes %d, eager %d", i, la.Bytes, ea.Bytes)
		}
		if ev, lv := ea.ChunkVersions(), la.ChunkVersions(); !reflect.DeepEqual(ev, lv) {
			t.Fatalf("write %d: ChunkVersions %v, eager %v", i, lv, ev)
		}
		if !bytes.Equal(lazy.LoadState(), eager.LoadState()) {
			t.Fatalf("write %d: LoadState differs from eager", i)
		}
	}
}

func TestSaveStateReplacesPendingEncoder(t *testing.T) {
	p := &Process{Mem: NewAddressSpace()}
	p.SaveStateFunc(4, func([]byte) []byte {
		t.Error("replaced encoder ran")
		return nil
	})
	p.SaveState([]byte("plain"))
	if got := string(p.LoadState()); got != "plain" {
		t.Errorf("LoadState = %q, want plain", got)
	}
}

func TestFlushStateRunsEncoderOnce(t *testing.T) {
	p := &Process{Mem: NewAddressSpace()}
	runs := 0
	p.SaveStateFunc(3, func(dst []byte) []byte {
		runs++
		return append(dst, "abc"...)
	})
	p.FlushState()
	p.FlushState()
	if got := string(p.LoadState()); got != "abc" || runs != 1 {
		t.Errorf("LoadState = %q after %d encoder runs, want abc after 1", got, runs)
	}
}

func TestFlushStatePanicsOnLengthMismatch(t *testing.T) {
	p := &Process{Mem: NewAddressSpace()}
	p.SaveStateFunc(4, appendEnc([]byte("abc")))
	defer func() {
		if recover() == nil {
			t.Error("a 3-byte encoding declared as 4 bytes did not panic")
		}
	}()
	p.FlushState()
}

func TestForkChildSeesDeferredState(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		state := []byte("parent-state")
		task.P.SaveStateFunc(len(state), appendEnc(state))
		pid := task.ForkFn("child", func(ct *Task) {
			if got := string(ct.P.Mem.Area(stateArea).Payload); got != "parent-state" {
				t.Errorf("child [state] payload = %q, want parent-state", got)
			}
			ct.Exit(0)
		})
		task.WaitPid(pid)
	})
}

func TestExecDropsPendingStateEncoder(t *testing.T) {
	te := newEnv(t, 1)
	te.c.RegisterFunc("fresh", func(task *Task, _ []string) {
		if st := task.P.LoadState(); st != nil {
			t.Errorf("LoadState after exec = %q, want nil", st)
		}
	})
	te.run(t, func(task *Task) {
		pid := task.ForkFn("child", func(ct *Task) {
			ct.P.SaveStateFunc(3, func(dst []byte) []byte {
				t.Error("old image's state encoder ran after exec")
				return append(dst, "old"...)
			})
			ct.Exec("fresh", nil)
		})
		task.WaitPid(pid)
	})
}
