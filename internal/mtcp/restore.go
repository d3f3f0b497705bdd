package mtcp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// The store restore path: restart step 5 ("restore memory", §4.4) for
// a manifest, as one verify–fetch–install pipeline.  A fetch stage
// pulls the chunks the local store lacks while an install pool
// decompresses and places each chunk the moment it is local, so a
// restart on a replica holder is pure parallel decompress and one on
// a cold node hides most of the decompress inside the transfer.  A
// full restore installs every chunk; a lazy (post-copy) restore
// installs only a skeleton and leaves the rest pending for the DMTCP
// layer's demand-fault and prefetch machinery.  The serial
// fetch-then-install baseline is this path with every chunk already
// local and no fetcher.

// ChunkFetcher supplies chunks the local store lacks during a restore.
// The DMTCP layer implements it over the replica daemon protocol (with
// holder fallback); MTCP only sees this interface.
type ChunkFetcher interface {
	// Fetch pulls refs into the local store, invoking deliver as each
	// chunk becomes locally durable (any order).  It returns the
	// stored bytes and chunk count actually transferred.  On error,
	// chunks delivered so far remain valid; the restore aborts and
	// discards the partially restored image.
	Fetch(t *kernel.Task, refs []store.ChunkRef, deliver func(store.ChunkRef)) (int64, int, error)
}

// RestoreOptions controls a store restore.
type RestoreOptions struct {
	// Workers sizes the install pool (decompression CPU; the node's
	// core scheduler bounds the real speedup).  <= 1 installs serially
	// but still overlaps with the fetch stage.
	Workers int
	// Fetch supplies chunks the local store lacks; nil requires every
	// installed chunk to be local already.
	Fetch ChunkFetcher
	// Lazy installs only the skeleton — the Params.LazySkeletonChunks
	// hottest private chunks plus every chunk of a shared area, which
	// cannot restore lazily (§4.5) — and returns the rest as
	// LazyState.Pending.  Without it every chunk is installed.
	Lazy bool
}

// RestoreStats reports one store restore.
type RestoreStats struct {
	// Took is the pipeline wall time: metadata read through the last
	// installed chunk.
	Took time.Duration
	// Fetch is the network stage's active time (zero when every chunk
	// was local); FetchedBytes/FetchedChunks what actually traveled.
	Fetch         time.Duration
	FetchedBytes  int64
	FetchedChunks int
	// OverlapBytes is the stored bytes already installed when the
	// fetch stage finished — the work the pipeline hid inside the
	// transfer.
	OverlapBytes int64
	// Workers is the install pool size used.
	Workers int
}

// LazyChunk locates one pending (not yet installed) chunk: the image
// area index, the chunk index within that area's payload, and the
// store reference to pull.
type LazyChunk struct {
	Area int
	Idx  int
	Ref  store.ChunkRef
}

// LazyState is what a lazy restore leaves for the post-resume
// machinery: the pending chunks, hottest-first (the prefetch queue).
type LazyState struct {
	Pending []LazyChunk
}

// Restore loads the store manifest at path into an Image.  The
// manifest itself must already be local; chunk payloads may live
// anywhere opts.Fetch can reach.  Every installed chunk is verified
// first: a corrupt local copy is quarantined and fetched clean like a
// missing one.  The image has its bulk restore cost paid, so
// ChargeMemoryRestore on it charges only per-area bookkeeping.  The
// LazyState is nil unless opts.Lazy.
func Restore(t *kernel.Task, path string, opts RestoreOptions) (*Image, *LazyState, RestoreStats, error) {
	p := t.P.Node.Cluster.Params
	var rs RestoreStats
	start := t.Now()

	// Decode the manifest and charge the metadata read.
	root, ok := store.RootForManifest(path)
	if !ok {
		return nil, nil, rs, fmt.Errorf("%w: not a manifest path: %s", ErrBadImage, path)
	}
	s := store.Open(t.P.Node, store.Config{Root: root})
	ino, err := t.P.Node.FS.ReadFile(path)
	if err != nil {
		return nil, nil, rs, err
	}
	m, err := store.DecodeManifest(ino.Data)
	if err != nil {
		return nil, nil, rs, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	img, err := Decode(m.Header)
	if err != nil {
		return nil, nil, rs, err
	}
	t.Compute(p.RestoreSetup)
	meta := ino.Size() + 64*1024
	for _, e := range img.Ext {
		meta += int64(len(e))
	}
	t.P.Node.ReadPipeFor(path).Read(t.T, meta)

	// Size every area buffer from its recorded payload length; chunks
	// land at idx × CkptChunkBytes, so the image is byte-identical at
	// any worker count and delivery order.
	for _, ac := range m.Areas {
		if ac.Area < 0 || ac.Area >= len(img.Areas) {
			return nil, nil, rs, fmt.Errorf("%w: manifest area %d out of range", ErrBadImage, ac.Area)
		}
		if n := img.Areas[ac.Area].PayloadBytes; n > 0 {
			img.Areas[ac.Area].Payload = make([]byte, n)
		}
	}

	// Pick the install set — every chunk in manifest order, or the
	// skeleton of the hot order with the rest pending — and split it
	// into verified-local and missing chunks.  Pending chunks are
	// verified too, so a corrupt local copy is quarantined now and the
	// post-copy pull fetches it clean.  A chunk referenced twice is
	// fetched once and installed at every coordinate.
	var all []store.ChunkCoord
	var lz *LazyState
	if opts.Lazy {
		all, lz = m.HotOrder(), &LazyState{}
	} else {
		for ai, ac := range m.Areas {
			for i, ref := range ac.Chunks {
				all = append(all, store.ChunkCoord{Area: ai, Idx: i, Ref: ref})
			}
		}
	}
	set := all[:0] // filtered in place
	var ready []int
	byHash := map[string][]int{}
	var missing []store.ChunkRef
	taken := 0
	for _, c := range all {
		err := s.VerifyChunk(c.Ref)
		if errors.Is(err, store.ErrCorruptChunk) {
			s.Quarantine(t, c.Ref.Hash)
		}
		ai := m.Areas[c.Area].Area
		if shared := img.Areas[ai].ShmBacking != ""; lz != nil && !shared {
			if taken >= p.LazySkeletonChunks {
				lz.Pending = append(lz.Pending, LazyChunk{Area: ai, Idx: c.Idx, Ref: c.Ref})
				continue
			}
			taken++
		}
		i := len(set)
		set = append(set, c)
		switch {
		case err == nil:
			ready = append(ready, i)
		case len(byHash[c.Ref.Hash]) == 0:
			missing = append(missing, c.Ref)
			fallthrough
		default:
			byHash[c.Ref.Hash] = append(byHash[c.Ref.Hash], i)
		}
	}
	if len(missing) > 0 && opts.Fetch == nil {
		return nil, nil, rs, fmt.Errorf("%w: %d chunks missing locally with no fetch source", ErrBadImage, len(missing))
	}

	// The install pool never spawns more workers than there are chunks.
	rs.Workers = min(max(opts.Workers, 1), len(set))
	eng := t.P.Node.Cluster.Eng
	cond := sim.NewWaitQueue(eng, t.P.Node.Hostname+".restore-ready")
	join := sim.NewWaitQueue(eng, t.P.Node.Hostname+".restore-join")
	fetching := len(missing) > 0
	var fetchErr error
	var installedStored int64
	track := fmt.Sprintf("%s[%d]", t.P.ProgName, t.P.Pid)
	if fetching {
		fStart := t.Now()
		t.P.SpawnTask("restore-fetch", true, func(ft *kernel.Task) {
			bytes, chunks, err := opts.Fetch.Fetch(ft, missing, func(ref store.ChunkRef) {
				ready = append(ready, byHash[ref.Hash]...)
				cond.WakeAll()
			})
			rs.FetchedBytes, rs.FetchedChunks = bytes, chunks
			rs.Fetch = ft.Now().Sub(fStart)
			if err != nil {
				fetchErr = err
			} else {
				// The network stage just ended: whatever the install
				// pool finished by now rode inside the transfer.
				rs.OverlapBytes = installedStored
			}
			ft.Trace().Span(ft.Host(), track+" fetch", "restore.fetch", "restore",
				fStart, ft.Now(), obs.A("bytes", bytes), obs.A("chunks", int64(chunks)))
			ft.Trace().Add(ft.Host(), "restore.fetched_bytes", ft.Now(), bytes)
			fetching = false
			cond.WakeAll()
			join.WakeAll()
		})
	}

	// Install pool: each worker claims a ready chunk, charges its read
	// bandwidth and decompression CPU, and places it.
	joined := 0
	for w := 0; w < rs.Workers; w++ {
		w := w
		t.P.SpawnTask("restore-worker", true, func(wt *kernel.Task) {
			wStart, wInstalled := wt.Now(), int64(0)
			defer func() {
				wt.Trace().Span(wt.Host(), fmt.Sprintf("%s install.%d", track, w),
					"restore.install", "restore", wStart, wt.Now(),
					obs.A("stored_bytes", wInstalled))
				joined++
				join.WakeAll()
			}()
			for {
				for len(ready) == 0 && fetching && fetchErr == nil {
					cond.Wait(wt.T)
				}
				if len(ready) == 0 || fetchErr != nil {
					return
				}
				c := set[ready[0]]
				ready = ready[1:]
				s.ChargeRead(wt, []store.ChunkRef{c.Ref})
				data, err := s.ReadChunkVerified(wt, c.Ref)
				if err != nil {
					if fetchErr == nil {
						fetchErr = fmt.Errorf("%w: chunk %s vanished mid-restore: %v",
							ErrBadImage, c.Ref.Hash, err)
					}
					cond.WakeAll()
					return
				}
				off := int64(c.Idx) * kernel.CkptChunkBytes
				if buf := img.Areas[m.Areas[c.Area].Area].Payload; off < int64(len(buf)) {
					copy(buf[off:], data)
				}
				installedStored += c.Ref.StoredBytes
				wInstalled += c.Ref.StoredBytes
			}
		})
	}
	for joined < rs.Workers || fetching {
		join.Wait(t.T)
	}
	if fetchErr != nil {
		// Abort: nothing was installed into a live process — the
		// partially assembled image is discarded whole.
		return nil, nil, rs, fetchErr
	}

	rs.Took = t.Now().Sub(start)
	span := "restore.pipeline"
	args := []obs.Arg{obs.A("workers", int64(rs.Workers)), obs.A("chunks", int64(len(set)))}
	if lz != nil {
		span = "restore.skeleton"
		args = append(args, obs.A("pending", int64(len(lz.Pending))))
	}
	t.Trace().Span(t.Host(), track, span, "restore", start, t.Now(), append(args,
		obs.A("fetched_bytes", rs.FetchedBytes), obs.A("overlap_bytes", rs.OverlapBytes))...)
	return img, lz, rs, nil
}
