package mpi

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/sim"
)

// runPair runs body as both ranks of a 2-rank world, one rank per
// node, and returns when both bodies have finished.
func runPair(t *testing.T, body func(w *World)) {
	t.Helper()
	eng := sim.NewEngine(1)
	c := kernel.NewCluster(eng, model.Default(), 2)
	t.Cleanup(eng.Shutdown)
	layout := Layout{Size: 2, PerNode: 1}
	done := 0
	c.RegisterFunc("rank", func(task *kernel.Task, args []string) {
		rank, _ := strconv.Atoi(args[0])
		w, err := Init(task, rank, layout, []int{0, 1})
		if err != nil {
			t.Errorf("rank %d init: %v", rank, err)
		} else {
			body(w)
		}
		if done++; done == 2 {
			eng.Stop()
		}
	})
	for r := 0; r < layout.Size; r++ {
		node := c.LookupHost(layout.HostOf(r))
		if _, err := node.Kern.Spawn("rank", []string{strconv.Itoa(r)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatalf("%d of 2 ranks finished", done)
	}
}

// TestStateSizeMatchesEncoding pins saveState's length formula to the
// encoder: the [state] area's size and dirty chunks are accounted from
// the formula, so a persisted field added to one but not the other
// would silently skew them.
func TestStateSizeMatchesEncoding(t *testing.T) {
	check := func(w *World, step string) {
		if n, enc := w.stateSize(), w.encodeState(nil); n != len(enc) {
			t.Errorf("rank %d after %s: stateSize %d, encoding %d bytes", w.Rank, step, n, len(enc))
		}
		if got := w.T.P.LoadState(); !bytes.Equal(got, w.encodeState(nil)) {
			t.Errorf("rank %d after %s: [state] holds %d bytes, not the live encoding", w.Rank, step, len(got))
		}
	}
	runPair(t, func(w *World) {
		peer := 1 - w.Rank
		for i := 0; i < 6; i++ {
			msg := bytes.Repeat([]byte{byte(i)}, 100<<i)
			w.Send(peer, i, msg)
			check(w, "send")
			if _, err := w.Recv(peer, i); err != nil {
				t.Errorf("rank %d recv %d: %v", w.Rank, i, err)
				return
			}
			check(w, "recv")
			if i%2 == 1 {
				w.Commit(bytes.Repeat([]byte{'a'}, 10*i))
				check(w, "commit")
			}
		}
		// Leave unconsumed bytes in the log across a Commit.
		w.Send(peer, 99, []byte("tail"))
		w.Commit([]byte("app"))
		check(w, "commit with pending rx")
		if _, err := w.Recv(peer, 99); err != nil {
			t.Errorf("rank %d recv tail: %v", w.Rank, err)
		}
		check(w, "final recv")
	})
}

// exchangeAlloc returns the bytes allocated by a 2-rank exchange of k
// 16 KiB messages each way with no Commit in between.
func exchangeAlloc(t *testing.T, k int) uint64 {
	msg := make([]byte, 16<<10)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	runPair(t, func(w *World) {
		for i := 0; i < k; i++ {
			if _, err := w.Sendrecv(1-w.Rank, 1, msg); err != nil {
				t.Errorf("rank %d exchange %d: %v", w.Rank, i, err)
				return
			}
		}
		w.T.Compute(time.Millisecond)
	})
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestExchangeAllocationIsLinear guards against re-encoding rank state
// per message: the receive log grows until the next Commit, so a
// per-message encoding makes allocation quadratic in the message count
// (doubling k roughly quadruples it), while deferring the encoding to
// capture keeps it linear.
func TestExchangeAllocationIsLinear(t *testing.T) {
	const k = 100
	small, large := exchangeAlloc(t, k), exchangeAlloc(t, 2*k)
	ratio := float64(large) / float64(small)
	t.Logf("allocated %.1f MB at k=%d, %.1f MB at k=%d: ratio %.2f", float64(small)/1e6, k, float64(large)/1e6, 2*k, ratio)
	if ratio >= 3 {
		t.Errorf("doubling the messages multiplied allocation by %.2f, want < 3 (linear)", ratio)
	}
}
