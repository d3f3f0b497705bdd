package mtcp

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/store"
)

// copyFetcher fakes the replica fetch stage for mtcp-level tests: it
// copies chunk objects from a source store root into the destination,
// idling per chunk so the transfer takes real virtual time and the
// install pool has something to overlap with.  failAfter > 0 makes it
// die mid-stream after that many chunks (the holder-lost case).
type copyFetcher struct {
	src, dst  *store.Store
	perChunk  time.Duration
	failAfter int
	delivered int
}

func (f *copyFetcher) Fetch(t *kernel.Task, refs []store.ChunkRef, deliver func(store.ChunkRef)) (int64, int, error) {
	var bytes int64
	for _, ref := range refs {
		if f.failAfter > 0 && f.delivered >= f.failAfter {
			return bytes, f.delivered, kernel.ErrClosed
		}
		t.Idle(f.perChunk)
		ino, err := f.src.Node.FS.ReadFile(f.src.ChunkPath(ref.Hash))
		if err != nil {
			return bytes, f.delivered, err
		}
		f.dst.Node.FS.WriteFile(f.dst.ChunkPath(ref.Hash), ino.Data, ino.LogicalSize)
		bytes += ref.StoredBytes
		f.delivered++
		deliver(ref)
	}
	return bytes, f.delivered, nil
}

// imageBytes canonicalizes an image for cross-path comparison.
func imageBytes(img *Image) []byte { return img.Encode() }

// TestRestoreMatchesCheckpointedImage pins the acceptance contract:
// the restore pipeline reconstructs the checkpointed image byte for
// byte at every worker count, and a local (short-circuit) restore
// reports no fetch and no overlap.
func TestRestoreMatchesCheckpointedImage(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		img := buildPipelineImage(task)
		s := store.Open(task.P.Node, store.Config{Root: "/ckpt/rs/store", Compress: true})
		res := WriteImage(task, img, WriteOptions{Store: s, Workers: 4})
		ref := imageBytes(img)

		for _, workers := range []int{1, 2, 8} {
			got, lz, rs, err := Restore(task, res.Path, RestoreOptions{Workers: workers})
			if err != nil {
				t.Fatalf("restore (%d workers): %v", workers, err)
			}
			if lz != nil {
				t.Errorf("%d workers: full restore returned lazy state", workers)
			}
			if !bytes.Equal(imageBytes(got), ref) {
				t.Errorf("%d workers: restored image differs from the checkpointed one", workers)
			}
			if rs.Fetch != 0 || rs.FetchedChunks != 0 || rs.OverlapBytes != 0 {
				t.Errorf("%d workers: local restore reported fetch stats %+v", workers, rs)
			}
			if rs.Workers != workers {
				t.Errorf("workers = %d, want %d", rs.Workers, workers)
			}
		}
	})
}

// TestRestoreStreamedParallelDecompress pins the install pool against
// the core model: 4 workers on the 4-core node restore ~4x faster than
// 1, and 8 buy nothing more.
func TestRestoreStreamedParallelDecompress(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		img := buildPipelineImage(task)
		s := store.Open(task.P.Node, store.Config{Root: "/ckpt/rp/store", Compress: true})
		res := WriteImage(task, img, WriteOptions{Store: s, Workers: 4})
		took := map[int]time.Duration{}
		for _, workers := range []int{1, 4, 8} {
			_, _, rs, err := Restore(task, res.Path, RestoreOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			took[workers] = rs.Took
		}
		sp4 := float64(took[1]) / float64(took[4])
		if sp4 < 2.0 {
			t.Errorf("4-worker restore speedup %.2fx, want >= 2x", sp4)
		}
		sp8 := float64(took[1]) / float64(took[8])
		if sp8 > sp4*1.10 {
			t.Errorf("8 workers on 4 cores sped restore up %.2fx over %.2fx", sp8, sp4)
		}
	})
}

// TestRestoreStreamedOverlapsFetch pins the pipeline's reason to
// exist: with every chunk remote, install work lands while the fetch
// is still in flight (OverlapBytes > 0), the result is byte-identical,
// and the whole restore beats fetch-then-install.
func TestRestoreStreamedOverlapsFetch(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		img := buildPipelineImage(task)
		src := store.Open(task.P.Node, store.Config{Root: "/ckpt/of-src/store", Compress: true})
		res := WriteImage(task, img, WriteOptions{Store: src, Workers: 4})
		want, err := LoadImage(task, res.Path)
		if err != nil {
			t.Fatal(err)
		}

		// A second root holding only the manifest: every chunk must
		// come through the fetcher.
		dst := store.Open(task.P.Node, store.Config{Root: "/ckpt/of-dst/store", Compress: true})
		ino, _ := task.P.Node.FS.ReadFile(res.Path)
		dstPath := dst.ManifestPath(ImageBase(img), res.Generation)
		task.P.Node.FS.WriteFile(dstPath, ino.Data, ino.LogicalSize)

		fetcher := &copyFetcher{src: src, dst: dst, perChunk: 2 * time.Millisecond}
		got, _, rs, err := Restore(task, dstPath, RestoreOptions{Workers: 4, Fetch: fetcher})
		if err != nil {
			t.Fatalf("remote streamed restore: %v", err)
		}
		if rs.FetchedChunks == 0 || rs.Fetch == 0 {
			t.Fatalf("no fetch recorded: %+v", rs)
		}
		if rs.OverlapBytes <= 0 {
			t.Errorf("no fetch/install overlap recorded: %+v", rs)
		}
		if rs.Took < rs.Fetch {
			t.Errorf("pipeline took %v < fetch stage %v", rs.Took, rs.Fetch)
		}
		// Payloads identical to the local load (identity fields differ
		// only in nothing: same header).
		if !bytes.Equal(imageBytes(got), imageBytes(want)) {
			t.Error("remotely streamed image differs from source image")
		}
	})
}

// TestRestoreStreamedFetchFailureAborts pins the no-partial-install
// contract: a fetcher dying mid-stream aborts the whole restore with
// its error; nothing half-assembled escapes.
func TestRestoreStreamedFetchFailureAborts(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		img := buildPipelineImage(task)
		src := store.Open(task.P.Node, store.Config{Root: "/ckpt/ff-src/store", Compress: true})
		res := WriteImage(task, img, WriteOptions{Store: src, Workers: 4})
		dst := store.Open(task.P.Node, store.Config{Root: "/ckpt/ff-dst/store", Compress: true})
		ino, _ := task.P.Node.FS.ReadFile(res.Path)
		dstPath := dst.ManifestPath(ImageBase(img), res.Generation)
		task.P.Node.FS.WriteFile(dstPath, ino.Data, ino.LogicalSize)

		fetcher := &copyFetcher{src: src, dst: dst, perChunk: time.Millisecond, failAfter: 3}
		got, _, _, err := Restore(task, dstPath, RestoreOptions{Workers: 4, Fetch: fetcher})
		if err == nil {
			t.Fatal("mid-stream fetch failure restored an image")
		}
		if got != nil {
			t.Fatal("failed restore returned a partial image")
		}

		// And with no fetcher at all, missing chunks are a typed error.
		if _, _, _, err := Restore(task, dstPath, RestoreOptions{Workers: 2}); err == nil {
			t.Fatal("missing chunks with no fetch source restored an image")
		}
	})
}

// TestRestoreLazySkeletonPartition pins the lazy install set: the
// skeleton is the LazySkeletonChunks hottest private chunks plus every
// shared-area chunk, skeleton and pending cover each manifest
// coordinate exactly once with the pending queue hottest-first, and
// only skeleton bytes are installed — each at its original offset.
func TestRestoreLazySkeletonPartition(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		rng := rand.New(rand.NewSource(1))
		heap := task.MapAnon("[heap]", 12*model.MB, model.ClassData)
		heap.Payload = make([]byte, 6*model.MB+777)
		rng.Read(heap.Payload)
		heap.TouchFraction(0.3, 5)
		heap.Touch(9*model.MB, 1)
		seg := task.ShmCreate("/dev/shm/lazy", 2*model.MB, model.ClassData)
		seg.Payload = make([]byte, 2*model.MB)
		rng.Read(seg.Payload)
		task.MapLib("/lib/libc.so", 3*model.MB)
		img := Capture(task.P, 42)
		s := store.Open(task.P.Node, store.Config{Root: "/ckpt/lz/store", Compress: true})
		res := WriteImage(task, img, WriteOptions{Store: s, Workers: 2})
		m, err := s.LoadManifest(res.Path)
		if err != nil {
			t.Fatal(err)
		}

		got, lz, _, err := Restore(task, res.Path, RestoreOptions{Workers: 2, Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		if lz == nil {
			t.Fatal("lazy restore returned no lazy state")
		}

		// Expected split, straight from the hot order.
		skel := c.Params.LazySkeletonChunks
		inSkeleton := map[[2]int]bool{}
		var wantPending [][2]int
		taken, shm := 0, 0
		for _, hc := range m.HotOrder() {
			key := [2]int{m.Areas[hc.Area].Area, hc.Idx}
			if img.Areas[key[0]].ShmBacking != "" {
				inSkeleton[key] = true
				shm++
			} else if taken < skel {
				inSkeleton[key] = true
				taken++
			} else {
				wantPending = append(wantPending, key)
			}
		}
		if shm != 2 || taken != skel {
			t.Fatalf("fixture has %d shm and %d hot private chunks, want 2 and %d", shm, taken, skel)
		}

		seen := map[[2]int]int{}
		for i, pc := range lz.Pending {
			key := [2]int{pc.Area, pc.Idx}
			seen[key]++
			if inSkeleton[key] {
				t.Errorf("skeleton chunk %v is also pending", key)
			}
			if i >= len(wantPending) || wantPending[i] != key {
				t.Errorf("pending[%d] = %v, want the hot order's %v", i, key, wantPending[min(i, len(wantPending)-1)])
			}
		}
		for key := range inSkeleton {
			seen[key]++
		}
		if len(seen) != m.NumChunks() {
			t.Errorf("skeleton+pending cover %d coordinates, manifest has %d", len(seen), m.NumChunks())
		}
		for key, n := range seen {
			if n != 1 {
				t.Errorf("coordinate %v covered %d times", key, n)
			}
		}

		// Skeleton bytes land at their offsets; pending spans stay empty.
		for ai, a := range img.Areas {
			for off := int64(0); off < int64(len(a.Payload)); off += kernel.CkptChunkBytes {
				end := min(off+kernel.CkptChunkBytes, int64(len(a.Payload)))
				key := [2]int{ai, int(off / kernel.CkptChunkBytes)}
				want := a.Payload[off:end]
				if !inSkeleton[key] {
					want = make([]byte, end-off)
				}
				if !bytes.Equal(got.Areas[ai].Payload[off:end], want) {
					t.Errorf("area %s chunk %d: installed bytes wrong (skeleton=%v)", a.Name, key[1], inSkeleton[key])
				}
			}
		}
	})
}
