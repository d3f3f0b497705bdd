package replica

import (
	"slices"
	"time"

	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// Push sessions.  Every copy of a generation to a peer — a queued
// post-commit job, a QoS-paced repair, or an eager stream overlapping
// the checkpoint write — runs one session over one connection to the
// peer's daemon: a want/missing handshake per batch of handed-over
// chunks, the chunks the peer lacks, the manifest, and a verify pass
// that re-ships any hole.
//
// Where the manifest goes depends on the stream's state when the
// session starts.  A generation already committed (queued and repair
// jobs) is covered by one handshake and ships its manifest right after
// it, before the first chunk, so the chunks are referenced — and safe
// from the peer's GC — the moment they land.  An eager stream ships
// chunks in want/missing batches as the writer lands them and sends the
// manifest only after the drain, at commit: a peer holding eagerly
// streamed chunks of an uncommitted generation simply holds
// unreferenced objects its mark-and-sweep may reclaim, and the verify
// pass re-ships any such hole.  GC watermark semantics are the same on
// every path — the source's watermark is initialized at commit (before
// the coordinator's post-round collection can run) and advances only
// after the full fan-out verifies.
//
// Stream implements the checkpoint layer's ChunkStream interface
// structurally; this package never imports it.

// streamBatch bounds how many freshly landed chunks one want/missing
// round trip of an eager stream covers.
const streamBatch = 32

// Stream is one generation being pushed to its placement targets:
// either a committed generation (a queued job) or one still being
// written (an eager stream).
type Stream struct {
	sv  *Service
	src *kernel.Node
	// job names the generation (an eager stream learns its manifest
	// path at commit) and carries repair pacing and cancellation.
	job Job

	refs      []store.ChunkRef // chunks handed over, arrival order
	committed bool
	aborted   bool
	// overlap is the pre-commit shipped total of the farthest-ahead
	// peer (a max, not a sum: with factor >= 2 every peer receives the
	// same chunks, and "how much of the image was replicated before
	// commit" must never exceed the image).
	overlap int64
	// writer is the process feeding an eager stream: the checkpointed
	// process that opened it, re-pointed at the forked writer child by
	// its first Chunk call.  A dead writer with no commit means the
	// stream can never complete and is aborted.
	writer *kernel.Process

	w       *sim.WaitQueue
	targets int
	pending int // pushers still running
	okPeers int
}

// NewStream opens an eager-replication stream for one upcoming
// generation of name on src, fed by writer (the checkpointed process;
// a forked writer child re-points the stream at itself with its first
// chunk).  Its pushers run in the source node's replica daemon, so they
// outlive the checkpointed process that feeds them.  It returns nil
// when streaming cannot run (no live daemon on the source, or no
// placement targets) — callers fall back to plain post-commit Enqueue.
func (sv *Service) NewStream(src *kernel.Node, writer *kernel.Process, name string, gen int64) *Stream {
	daemon := sv.daemons[src]
	if daemon == nil || daemon.Dead || daemon.Zombie || src.Down {
		return nil
	}
	targets := sv.Targets(src)
	if len(targets) == 0 {
		return nil
	}
	s := &Stream{sv: sv, src: src, job: Job{Name: name, Generation: gen}, writer: writer,
		w: sim.NewWaitQueue(sv.C.Eng, src.Hostname+".stream")}
	sv.streams[src] = append(sv.streams[src], s)
	s.fanOut(daemon, targets, func(*kernel.Task) {
		if s.committed && !s.aborted && s.okPeers < s.targets {
			// Partial fan-out (a peer died or raced its GC out of
			// retries): fall back to the queued path, which re-picks
			// live targets and ships only what they still lack.
			sv.Enqueue(s.src, s.job)
		}
		sv.idleW.WakeAll()
	})
	return s
}

// Chunk hands one durable chunk to the stream (ChunkStream).
func (s *Stream) Chunk(t *kernel.Task, ref store.ChunkRef) {
	if s.aborted {
		return
	}
	s.writer = t.P
	s.refs = append(s.refs, ref)
	s.w.WakeAll()
}

// Commit reports the written manifest and returns the stored bytes
// the farthest-ahead peer had already received before this instant
// (ChunkStream).  The source's replication watermark is initialized
// here so the coordinator's post-round GC can never prune the
// generation while its fan-out completes.
func (s *Stream) Commit(t *kernel.Task, manifestPath string) int64 {
	if s.aborted {
		return 0
	}
	s.writer = t.P
	store.Open(s.src, store.Config{Root: s.sv.Cfg.Root}).InitReplicationWatermark(t, s.job.Name)
	s.job.ManifestPath = manifestPath
	s.committed = true
	s.w.WakeAll()
	return s.overlap
}

// Abort discards the stream without committing (ChunkStream).
func (s *Stream) Abort() {
	s.aborted = true
	s.w.WakeAll()
}

// stale reports that the stream can never commit: its writer process
// died (or its node did) before the manifest landed.
func (s *Stream) stale() bool {
	if s.committed || s.aborted {
		return false
	}
	if s.src.Down {
		return true
	}
	return s.writer != nil && (s.writer.Dead || s.writer.Zombie)
}

// fanOut pushes s to every target at once, one push session per target
// in its own task of proc.  The outcome depends only on which sessions
// succeed, never on their completion order.  Each completed copy is
// reported to OnReplicated.  The last pusher out resolves the
// generation: it retires the stream from WaitIdle's count and, when
// every copy of the committed generation completed, advances the
// source's replication watermark; then it runs last (when set) and
// wakes s.w.
func (s *Stream) fanOut(proc *kernel.Process, targets []*kernel.Node, last func(t *kernel.Task)) {
	sv := s.sv
	s.targets, s.pending = len(targets), len(targets)
	for _, peer := range targets {
		peer := peer
		proc.SpawnTask("repl-push", true, func(t *kernel.Task) {
			if s.push(t, peer) {
				s.okPeers++
				if sv.OnReplicated != nil {
					sv.OnReplicated(s.job.Name, s.job.Generation, peer.Hostname)
				}
			}
			s.pending--
			if s.pending > 0 {
				return
			}
			sv.streams[s.src] = slices.DeleteFunc(sv.streams[s.src], func(o *Stream) bool { return o == s })
			if s.committed && !s.aborted && s.okPeers == s.targets {
				store.Open(s.src, store.Config{Root: sv.Cfg.Root}).SetReplicationWatermark(t, s.job.Name, s.job.Generation)
				sv.Stats.Generations++
				if sv.OnWatermark != nil {
					sv.OnWatermark(s.job.Name, s.job.Generation, s.src.Hostname)
				}
			}
			if last != nil {
				last(t)
			}
			s.w.WakeAll()
		})
	}
}

// push runs one push session to peer and reports whether the peer
// ended holding a verified copy of the generation.  A session that
// starts before commit traces itself as an eager stream.
func (s *Stream) push(t *kernel.Task, peer *kernel.Node) (ok bool) {
	sv := s.sv
	if s.job.Cancel != nil && s.job.Cancel() {
		return false // abandoned before this peer's turn
	}
	early := s.committed // manifest before the first chunk
	if !early {
		start := t.Now()
		defer func() {
			var okVal int64
			if ok {
				okVal = 1
			}
			t.Trace().Span(t.Host(), "replicad stream→"+peer.Hostname, "repl.stream", "repl", start, t.Now(),
				obs.A("gen", s.job.Generation), obs.A("ok", okVal), obs.A("overlap_bytes", s.overlap))
		}()
	}
	fd, err := dial(t, peer.Hostname)
	if err != nil {
		return false
	}
	defer t.Close(fd)
	st := store.Open(s.src, store.Config{Root: sv.Cfg.Root})
	manifestSent := false
	sendManifest := func() bool {
		manifestSent = true
		return sv.shipManifest(t, fd, s.job.ManifestPath)
	}
	cursor := 0
	var preBytes int64 // this peer's pre-commit shipped total
	for {
		for cursor == len(s.refs) && !s.committed && !s.aborted {
			if s.stale() {
				s.Abort()
				return false
			}
			s.w.WaitTimeout(t.T, 100*time.Millisecond)
		}
		if s.aborted {
			return false
		}
		if cursor == len(s.refs) {
			break // committed and fully drained
		}
		hi := len(s.refs)
		if !early && hi > cursor+streamBatch {
			hi = cursor + streamBatch
		}
		batch := s.refs[cursor:hi]
		cursor = hi
		preCommit := !s.committed
		missing, acked := wantMissing(t, fd, batch)
		if !acked {
			return false
		}
		if early && !manifestSent && !sendManifest() {
			return false
		}
		if !s.shipChunks(t, st, fd, missing) {
			return false
		}
		if preCommit {
			for _, r := range missing {
				preBytes += r.StoredBytes
			}
			s.overlap = max(s.overlap, preBytes)
		}
	}
	if !manifestSent && !sendManifest() {
		return false
	}
	// The verify pass reports holes as indices into the manifest's
	// chunk order, not the stream's arrival order.
	m, err := st.LoadManifest(s.job.ManifestPath)
	if err != nil || !s.verify(t, st, fd, m.Refs()) {
		return false
	}
	sv.Stats.Pushes++
	if s.job.Repair {
		sv.Stats.RepairPushes++
	}
	return true
}

// wantMissing runs the want/missing dedup handshake for one batch of
// refs on an open peer connection, returning the subset the peer
// lacks.
func wantMissing(t *kernel.Task, fd int, refs []store.ChunkRef) ([]store.ChunkRef, bool) {
	var e bin.Encoder
	e.B = append(e.B, opWant)
	e.U32(uint32(len(refs)))
	for _, r := range refs {
		e.Str(r.Hash)
	}
	return callIndexed(t, fd, e.B, refs)
}

// callIndexed sends a want or done request and reads its index-list
// reply — a count, then that many indices into refs — returning the
// refs it names.  A reply that is refused, truncated, or names an
// index outside refs fails: a short reply must never read as "the
// peer lacks nothing".
func callIndexed(t *kernel.Task, fd int, req []byte, refs []store.ChunkRef) ([]store.ChunkRef, bool) {
	d, err := call(t, fd, req)
	if err != nil {
		return nil, false
	}
	n := int(d.U32())
	out := make([]store.ChunkRef, 0, min(n, len(refs)))
	for i := 0; i < n && d.Err == nil; i++ {
		idx := int(d.U32())
		if idx >= len(refs) {
			return nil, false
		}
		out = append(out, refs[idx])
	}
	return out, d.Err == nil
}

// shipManifest sends one manifest to an open peer connection.
func (sv *Service) shipManifest(t *kernel.Task, fd int, manifestPath string) bool {
	p := t.P.Node.Cluster.Params
	ino, err := t.P.Node.FS.ReadFile(manifestPath)
	if err != nil {
		return false
	}
	t.Idle(model.TransferTime(p.NetLatency, p.NetBandwidth, int64(len(ino.Data))))
	var me bin.Encoder
	me.B = append(me.B, opManifest)
	me.Str(manifestPath)
	me.Bytes(ino.Data)
	if err := t.SendFrame(fd, me.B); err != nil {
		return false
	}
	sv.Stats.ManifestBytes += int64(len(ino.Data))
	return true
}

// verify has the peer check the shipped generation against the
// manifest it now holds, re-pushing any holes.  The verification
// closes the remaining race: a chunk the want-reply counted as present
// could have been swept by the peer's GC (its referencing manifest
// pruned) before our manifest arrived to pin it — and a chunk streamed
// ahead of the manifest could have been swept as unreferenced garbage
// in the same window.
func (s *Stream) verify(t *kernel.Task, st *store.Store, fd int, refs []store.ChunkRef) bool {
	for attempt := 0; ; attempt++ {
		var de bin.Encoder
		de.B = append(de.B, opDone)
		de.Str(s.job.ManifestPath)
		holes, ok := callIndexed(t, fd, de.B, refs)
		if !ok {
			return false
		}
		if len(holes) == 0 {
			return true
		}
		if attempt >= 2 || !s.shipChunks(t, st, fd, holes) {
			return false
		}
	}
}

// shipChunks streams the given chunks to an open peer connection:
// local disk read plus one network transfer of the stored (compressed)
// bytes each.  Chunks travel in stored form — no decompression, and
// the transfer occupies no core.  Repair traffic is paced by
// Params.RepairQoS (see Params.QoSIdle), capping repair at that
// fraction of the push bandwidth so foreground checkpoint replication
// keeps the rest.  A job cancelled mid-push (its generation superseded)
// stops at the next chunk boundary instead of finishing a transfer
// nobody needs.
func (s *Stream) shipChunks(t *kernel.Task, st *store.Store, fd int, refs []store.ChunkRef) bool {
	sv := s.sv
	p := t.P.Node.Cluster.Params
	var sent int64
	st.ChargeReadRaw(t, refs)
	for _, ref := range refs {
		if s.job.Cancel != nil && s.job.Cancel() {
			return false
		}
		// Verified read: a locally corrupt chunk is quarantined instead
		// of shipped, the push fails, and the repair drive re-sources
		// the generation from a clean holder.
		data, err := st.ReadChunkVerified(t, ref)
		if err != nil {
			return false
		}
		transfer := model.TransferTime(p.NetLatency, p.NetBandwidth, ref.StoredBytes)
		t.Idle(transfer)
		if s.job.Repair {
			t.Idle(p.QoSIdle(transfer, p.RepairQoS))
		}
		var ce bin.Encoder
		ce.B = append(ce.B, opChunk)
		ce.Str(ref.Hash)
		ce.I64(ref.LogicalBytes)
		ce.I64(ref.StoredBytes)
		ce.F64(ref.Entropy)
		ce.F64(ref.ZeroFrac)
		ce.I64(ref.Heat)
		ce.Str(ref.Sum)
		ce.Bytes(data)
		if err := t.SendFrame(fd, ce.B); err != nil {
			return false
		}
		sv.Stats.ChunksSent++
		sv.Stats.BytesSent += ref.StoredBytes
		sent += ref.StoredBytes
	}
	t.Trace().Add(t.Host(), "repl.bytes_sent", t.Now(), sent)
	return true
}
