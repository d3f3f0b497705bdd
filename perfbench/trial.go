package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dmtcp"
	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// trial is the record of one seeded scenario instance.  Everything in
// it is read from outside the layers: the stats the benchmark's calls
// return, the engine's event counter, and the host clock and allocator
// around those calls.
type trial struct {
	seed int64

	// Operations: checkpoint requests, restarts, recoveries, takeovers
	// and the final output check.  An operation planned but never
	// reached before the virtual deadline counts as failed.
	attempted, failed int
	// wrong lists outputs that disagree with the workload's oracle.
	wrong []string
	// notes lists operations that failed, for the human report.
	notes []string
	// planned holds operations the scenario will attempt but has not
	// yet; the ones left when the virtual deadline stops it fail.
	planned []string
	// now reads the trial's virtual clock; progress is when the last
	// operation succeeded.
	now      func() sim.Time
	progress sim.Time

	rounds   []*dmtcp.CkptRound
	restarts []*dmtcp.RestartStages
	// recovery is virtual time from each injected failure until the
	// computation runs again; takeover the coordinator's share of it.
	recovery []time.Duration
	takeover []time.Duration
	// span is the virtual length of the measured phase; lost is the
	// part of it the application did not run in: checkpoint pauses,
	// recovery downtime, rolled-back work and, when the deadline stopped
	// the trial, everything after the last operation that succeeded.
	span, lost time.Duration
	// Replica service counters: chunk bytes shipped to peers, bytes
	// restarts pulled from them, and the coordinator journal shipped to
	// standbys.
	sentBytes, fetchBytes int64
	journalBytes          int64
	journalEntries        int

	// Host clock and allocator: setup runs from cluster construction to
	// the workload being ready for its first checkpoint; the measured
	// phase from there to the end of the scenario.
	setup, wall         time.Duration
	ckptHost, rstHost   time.Duration
	alloc, heapPeak     uint64
	events, setupEvents uint64
}

// plan announces operations the scenario will attempt.
func (tr *trial) plan(names ...string) { tr.planned = append(tr.planned, names...) }

// op records one operation's outcome; err explains a failure.
func (tr *trial) op(name string, ok bool, err error) bool {
	for i, p := range tr.planned {
		if p == name {
			tr.planned = append(tr.planned[:i], tr.planned[i+1:]...)
			break
		}
	}
	tr.attempted++
	if ok && tr.now != nil {
		tr.progress = tr.now()
	}
	if !ok {
		tr.failed++
		if err != nil {
			name += ": " + err.Error()
		}
		tr.notes = append(tr.notes, name)
	}
	return ok
}

// scenario is what a workload runs in one trial: launch the job and
// return once it is ready for its first checkpoint, then drive the
// measured phase.  Both run as the orchestration task on node 0.
type scenario struct {
	nodes    int
	cfg      dmtcp.Config
	deadline time.Duration // virtual; bounds the measured phase
	launch   func(env *experiments.Env, t *kernel.Task, seed int64) error
	measure  func(env *experiments.Env, t *kernel.Task, tr *trial)
}

// runTrial builds a fresh cluster from seed and drives sc on it; with
// setupOnly it stops once the job is ready.
func runTrial(sc scenario, seed int64, setupOnly bool) *trial {
	tr := &trial{seed: seed}
	var m0 runtime.MemStats
	start := time.Now()
	env := experiments.NewEnv(seed, sc.nodes, sc.cfg)
	tr.now = env.Eng.Now
	var ready time.Time
	var virtStart sim.Time
	var peak *heapSampler
	launched, finished := false, false
	env.C.RegisterFunc("perfbench-orchestrator", func(t *kernel.Task, _ []string) {
		err := sc.launch(env, t, seed)
		if !tr.op("launch", err == nil, err) {
			return
		}
		launched = true
		ready = time.Now()
		if setupOnly {
			env.Eng.Stop()
			return
		}
		tr.setupEvents = env.Eng.EventsFired()
		runtime.ReadMemStats(&m0)
		peak = startHeapSampler()
		virtStart = t.Now()
		// The deadline is a virtual-time event: a wedged job keeps
		// firing events (ranks poll), so only the engine clock can
		// bound it without hanging the host.
		env.Eng.Schedule(sc.deadline, func() { env.Eng.Stop() })
		tr.progress = t.Now()
		sc.measure(env, t, tr)
		tr.span = t.Now().Sub(virtStart)
		finished = true
		env.Eng.Stop()
	})
	if _, err := env.C.Node(0).Kern.Spawn("perfbench-orchestrator", nil, nil); err != nil {
		tr.op("spawn orchestrator", false, err)
		return tr
	}
	err := env.Eng.Run()
	end := env.Eng.Now()
	env.Eng.Shutdown()
	// The record outlives the cluster; holding the clock would keep the
	// whole simulation alive.
	tr.now = nil
	if setupOnly && launched {
		tr.setup = ready.Sub(start)
		return tr
	}
	if !launched {
		ready = time.Now()
		peak = startHeapSampler()
		runtime.ReadMemStats(&m0)
	}
	tr.wall = time.Since(ready)
	tr.setup = ready.Sub(start)
	tr.heapPeak = peak.stop()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	tr.alloc = m1.TotalAlloc - m0.TotalAlloc
	tr.events = env.Eng.EventsFired() - tr.setupEvents
	if err != nil {
		tr.op("engine run", false, err)
	}
	if launched && !finished {
		// Stopped by the deadline: the time since the last operation
		// that succeeded did the job no good.
		tr.span = end.Sub(virtStart)
		tr.lost += end.Sub(tr.progress)
		for len(tr.planned) > 0 {
			tr.op(tr.planned[0], false, fmt.Errorf("virtual deadline reached"))
		}
	}
	if rs := env.Sys.Replica; rs != nil {
		st := rs.Stats
		tr.journalEntries = st.JournalEntries
		tr.journalBytes = st.JournalBytes
		tr.sentBytes = st.BytesSent
		tr.fetchBytes = st.FetchBytes
	}
	return tr
}

// heapSampler polls the live heap (as the last garbage collection
// measured it) from its own goroutine and keeps the largest value seen,
// so a peak between orchestration steps is not missed.  Heap in use including
// garbage would mostly measure the collector's pacing.
type heapSampler struct {
	peak atomic.Uint64
	quit chan struct{}
	wg   sync.WaitGroup
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{})}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak.Load() {
		h.peak.Store(v)
	}
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	h.wg.Wait()
	h.sample()
	return h.peak.Load()
}

// checkpointOp names the n-th checkpoint request of a trial.
func checkpointOp(n int) string { return fmt.Sprintf("checkpoint %d", n) }

// checkpoint issues one checkpoint request and records it.
func checkpoint(env *experiments.Env, t *kernel.Task, tr *trial) *dmtcp.CkptRound {
	h := time.Now()
	r, err := env.Sys.Checkpoint(t)
	tr.ckptHost += time.Since(h)
	if !tr.op(checkpointOp(len(tr.rounds)+1), err == nil && r != nil, err) {
		return nil
	}
	tr.rounds = append(tr.rounds, r)
	tr.lost += r.Stages.Total
	return r
}
