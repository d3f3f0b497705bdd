package mtcp

import (
	"time"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/store"
)

// runWorkers is kernel.RunWorkers for work that cannot fail: the
// checkpoint write/restore pools charge time but have no error paths.
func runWorkers(t *kernel.Task, workers, n int, role string, fn func(wt *kernel.Task, i int)) {
	kernel.RunWorkers(t, workers, n, role, func(wt *kernel.Task, i int) error {
		fn(wt, i)
		return nil
	})
}

// compressSpan is one unit of compression work: a chunk-sized slice of
// one area.
type compressSpan struct {
	bytes int64
	class model.MemClass
}

// compressSpans splits an image's areas into store-chunk-sized
// compression work items.
func compressSpans(img *Image) []compressSpan {
	var out []compressSpan
	for _, a := range img.Areas {
		for off := int64(0); off < a.Bytes; off += kernel.CkptChunkBytes {
			span := kernel.CkptChunkBytes
			if off+span > a.Bytes {
				span = a.Bytes - off
			}
			out = append(out, compressSpan{bytes: span, class: a.Class()})
		}
	}
	return out
}

// ChargeMemoryRestoreN is ChargeMemoryRestore with a parallel restore
// pool: decompression is partitioned across workers tasks, the
// symmetric treatment of the parallel write path.  The node's core
// scheduler bounds the speedup at the core count.  workers <= 1
// decompresses serially.
func ChargeMemoryRestoreN(t *kernel.Task, img *Image, path string, workers int) {
	p := t.P.Node.Cluster.Params
	if !store.IsManifestPath(path) {
		var onDisk int64
		if ino, err := t.P.Node.FS.ReadFile(path); err == nil {
			onDisk = ino.Size()
		}
		t.P.Node.ReadPipeFor(path).Read(t.T, onDisk)
		if onDisk > 0 && onDisk < img.LogicalBytes() {
			if workers <= 1 {
				for _, a := range img.Areas {
					t.Compute(p.DecompressTime(a.Bytes, a.Class()))
				}
			} else {
				spans := compressSpans(img)
				runWorkers(t, workers, len(spans), "gunzip-worker", func(wt *kernel.Task, i int) {
					wt.Compute(p.DecompressTime(spans[i].bytes, spans[i].class))
				})
			}
		}
	}
	t.Compute(time.Duration(len(img.Areas)) * p.PerAreaCost)
}
