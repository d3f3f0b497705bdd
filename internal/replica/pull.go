package replica

import (
	"fmt"
	"slices"

	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// PullStream is the one chunk puller: every restore fetch — streamed,
// serial and lazy — pulls a chunk set into the calling node's store
// through it.  It opens conns connections to each live holder, and
// every connection drains one shared hottest-first queue, so aggregate
// fetch bandwidth scales with the holder count (each holder's daemon
// serializes its sends at the NIC rate).  Demand faults preempt the
// queue: Demand promotes a chunk to the front and blocks the caller
// until it is locally durable.  A holder that fails mid-fetch has its
// in-flight chunk requeued at the front and is dropped — its other
// connections stop after their in-flight chunk — while the surviving
// holders keep draining; only when every holder is gone does the
// stream fail with a HolderLostError.
type PullStream struct {
	local *store.Store
	w     *sim.WaitQueue

	pullers int      // live puller tasks
	tried   []string // holders dropped after an error, each once
	lastErr error    // the error that dropped the latest holder

	queue    []store.ChunkRef // pending, hottest-first; front is next
	needed   map[string]bool  // hash → part of this stream
	done     map[string]bool  // hash → locally durable
	demanded map[string]bool  // hash → a fault is (or was) waiting on it

	remaining int
	aborted   bool
	err       error
	deliver   func(store.ChunkRef)

	bytes, demandBytes, prefetchBytes int64
	chunks                            int
}

// NewPullStream starts pulling refs (already ordered hottest-first)
// from holders into the calling node's store over conns connections
// per holder (at least one, and never more than there are chunks to
// pull).  Chunks already local are delivered immediately without
// touching the network.  deliver (optional) runs as each chunk becomes
// locally durable, on whichever task landed it.
func NewPullStream(t *kernel.Task, sv *Service, holders []string, conns int, refs []store.ChunkRef, deliver func(store.ChunkRef)) *PullStream {
	ps := &PullStream{
		local:    store.Open(t.P.Node, store.Config{Root: sv.Cfg.Root}),
		w:        sim.NewWaitQueue(t.P.Node.Cluster.Eng, "repl.pull"),
		needed:   make(map[string]bool, len(refs)),
		done:     make(map[string]bool, len(refs)),
		demanded: map[string]bool{},
		deliver:  deliver,
	}
	for _, ref := range refs {
		if ps.needed[ref.Hash] {
			continue // duplicate hash: one pull serves every coordinate
		}
		ps.needed[ref.Hash] = true
		if ps.local.HasChunk(ref.Hash) {
			ps.done[ref.Hash] = true
			if deliver != nil {
				deliver(ref)
			}
			continue
		}
		ps.queue = append(ps.queue, ref)
		ps.remaining++
	}
	if ps.remaining == 0 {
		return ps
	}
	conns = min(max(conns, 1), ps.remaining)
	for _, h := range holders {
		if n := t.P.Node.Cluster.LookupHost(h); n == nil || n.Down || h == t.P.Node.Hostname {
			continue
		}
		for i := 0; i < conns; i++ {
			h, track := h, fmt.Sprintf("replicad pull %s.%d", h, i)
			ps.pullers++
			t.P.SpawnTask("repl-fetch", true, func(pt *kernel.Task) { ps.pull(pt, h, track, conns) })
		}
	}
	if ps.pullers == 0 {
		ps.err = &HolderLostError{Hosts: append([]string(nil), holders...)}
	}
	return ps
}

// pull is one connection to holder, draining the shared queue until
// the stream finishes or the holder is dropped.
func (ps *PullStream) pull(t *kernel.Task, holder, track string, conns int) {
	start := t.Now()
	var myBytes int64
	myChunks := 0
	defer func() {
		ps.pullers--
		if ps.pullers == 0 && ps.remaining > 0 && ps.err == nil && !ps.aborted {
			ps.err = &HolderLostError{Hosts: append([]string(nil), ps.tried...), Err: ps.lastErr}
		}
		t.Trace().Span(t.Host(), track, "repl.fetch", "repl", start, t.Now(),
			obs.A("bytes", myBytes), obs.A("chunks", int64(myChunks)), obs.A("conns", int64(conns)))
		t.Trace().Add(t.Host(), "repl.bytes_fetched", t.Now(), myBytes)
		ps.w.WakeAll()
	}()

	cfd, err := dial(t, holder)
	if err != nil {
		ps.dropHolder(holder, err)
		return
	}
	defer t.Close(cfd)
	for !ps.aborted && ps.err == nil && ps.remaining > 0 && !slices.Contains(ps.tried, holder) {
		if len(ps.queue) == 0 {
			ps.w.Wait(t.T)
			continue
		}
		ref := ps.queue[0]
		ps.queue = ps.queue[1:]
		if err := ps.fetchOne(t, cfd, holder, ref); err != nil {
			// Requeue at the front (demand order preserved) and fall
			// back to the surviving holders.
			ps.queue = append([]store.ChunkRef{ref}, ps.queue...)
			ps.dropHolder(holder, err)
			return
		}
		ps.done[ref.Hash] = true
		ps.remaining--
		ps.bytes += ref.StoredBytes
		ps.chunks++
		myBytes += ref.StoredBytes
		myChunks++
		if ps.demanded[ref.Hash] {
			ps.demandBytes += ref.StoredBytes
		} else {
			ps.prefetchBytes += ref.StoredBytes
		}
		if ps.deliver != nil {
			ps.deliver(ref)
		}
		ps.w.WakeAll()
	}
}

// fetchOne pulls one chunk over the open connection into the local
// store.
func (ps *PullStream) fetchOne(t *kernel.Task, cfd int, holder string, ref store.ChunkRef) error {
	var e bin.Encoder
	e.B = append(e.B, opGetChunk)
	e.Str(ref.Hash)
	e.Str(ref.Sum)
	d, err := call(t, cfd, e.B)
	if err == nil {
		_, err = ps.local.PutReplicaChunk(t, ref, d.Bytes())
	}
	if err != nil {
		return fmt.Errorf("replica: pull %s from %s: %w", ref.Hash, holder, err)
	}
	return nil
}

// dropHolder retires a failed holder; its other connections stop after
// their in-flight chunk.
func (ps *PullStream) dropHolder(h string, err error) {
	ps.lastErr = err
	if !slices.Contains(ps.tried, h) {
		ps.tried = append(ps.tried, h)
	}
}

// Demand is the fault path: it promotes the chunk to the front of the
// queue (preempting the prefetch order) and blocks until it is locally
// durable.  Chunks already durable return immediately.
func (ps *PullStream) Demand(t *kernel.Task, ref store.ChunkRef) error {
	if !ps.needed[ref.Hash] {
		return fmt.Errorf("replica: chunk %s not part of this pull stream", ref.Hash)
	}
	if ps.done[ref.Hash] {
		return nil
	}
	ps.demanded[ref.Hash] = true
	for i := range ps.queue {
		if ps.queue[i].Hash == ref.Hash {
			if i > 0 {
				r := ps.queue[i]
				copy(ps.queue[1:i+1], ps.queue[:i])
				ps.queue[0] = r
			}
			break
		}
	}
	ps.w.WakeAll()
	for !ps.done[ref.Hash] {
		if ps.err != nil {
			return ps.err
		}
		if ps.aborted {
			return fmt.Errorf("replica: pull stream aborted")
		}
		ps.w.Wait(t.T)
	}
	return nil
}

// Wait blocks until every chunk is locally durable (or the stream
// failed) and returns the stream error, if any.
func (ps *PullStream) Wait(t *kernel.Task) error {
	for ps.remaining > 0 && ps.err == nil && !ps.aborted {
		ps.w.Wait(t.T)
	}
	return ps.err
}

// Abort stops the stream: pullers exit after their in-flight chunk
// (which stays durable) and blocked Demand callers unblock with an
// error.  Used when the restored process dies mid-drain.
func (ps *PullStream) Abort() {
	if ps.aborted {
		return
	}
	ps.aborted = true
	ps.w.WakeAll()
}

// Bytes returns total stored bytes fetched over the network.
func (ps *PullStream) Bytes() int64 { return ps.bytes }

// Chunks returns total chunks fetched over the network.
func (ps *PullStream) Chunks() int { return ps.chunks }

// DemandBytes returns the fetched bytes a fault was waiting on.
func (ps *PullStream) DemandBytes() int64 { return ps.demandBytes }

// PrefetchBytes returns the fetched bytes no fault waited on.
func (ps *PullStream) PrefetchBytes() int64 { return ps.prefetchBytes }
