package dmtcp

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/store"
)

// End-to-end chunk-integrity coverage: latent disk corruption on a
// replica holder is detected by content verification, quarantined,
// healed from another holder, and never installed into a restored
// process image.

// TestRestartHealsCorruptLocalChunk corrupts one chunk in a holder's
// local store and restarts the dead workload on that same holder.  The
// restore path must detect the flipped bit during local verification,
// quarantine the bad object, fetch the clean copy from the other
// holder, and complete with an image in which every chunk verifies —
// the "restore never installs a corrupt chunk" contract.
func TestRestartHealsCorruptLocalChunk(t *testing.T) {
	e := newEnv(t, 4, Config{Compress: true, Store: true, ReplicaFactor: 2, CkptWorkers: 2})
	e.drive(t, func(task *kernel.Task) {
		round := restoreEnv(t, e, task) // workload dead; holders: node02, node03

		// Flip one bit in node02's copy of a chunk the restored image
		// actually references (the store also holds superseded
		// generation-1 objects the restore would never read).
		st2 := store.Open(e.c.Node(2), store.Config{Root: e.sys.StoreRoot()})
		m0, err := st2.LoadManifest(round.Images[0].Path)
		if err != nil {
			t.Fatalf("holder manifest: %v", err)
		}
		hash := m0.Refs()[0].Hash
		if !st2.CorruptChunk(rand.New(rand.NewSource(3)), hash) {
			t.Fatalf("chunk %s not present on node02", hash)
		}

		// Restart on the corrupted holder itself: everything else is
		// local, so any fetch traffic is corruption healing.
		stats, rerr := e.sys.RestartAll(task, round, Placement{"node01": 2})
		if rerr != nil {
			t.Fatalf("restart on corrupted holder: %v", rerr)
		}
		if stats.FetchedChunks < 1 {
			t.Errorf("no chunks fetched: the corrupt chunk was installed from disk (stats %+v)", stats)
		}
		found := false
		for _, q := range st2.Quarantined() {
			if q == hash {
				found = true
			}
		}
		if !found {
			t.Errorf("corrupt chunk %s not quarantined (quarantine: %v)", hash, st2.Quarantined())
		}

		// The healed store is complete and every chunk verifies.
		m, err := st2.LoadManifest(round.Images[0].Path)
		if err != nil {
			t.Fatalf("manifest on healed holder: %v", err)
		}
		if missing := st2.MissingChunks(m.Refs()); len(missing) != 0 {
			t.Errorf("%d chunks missing after heal", len(missing))
		}
		for _, ref := range m.Refs() {
			if err := st2.VerifyChunk(ref); err != nil {
				t.Errorf("chunk %s fails verification after heal: %v", ref.Hash, err)
			}
		}
		task.Compute(50 * time.Millisecond)
		found = false
		for _, p := range e.sys.ManagedProcesses() {
			if p.Node.ID == 2 && p.ProgName == "bigdirty" {
				found = true
			}
		}
		if !found {
			t.Error("restored process not running on node02")
		}
	})
}

// coldestChunk returns the hash of the last chunk in the restored
// image's hot order on node's store: with LazySkeletonChunks far below
// the chunk count, a lazy restore always leaves it pending.
func coldestChunk(t *testing.T, e *env, node kernel.NodeID, round *CkptRound) (*store.Store, string) {
	t.Helper()
	st := store.Open(e.c.Node(node), store.Config{Root: e.sys.StoreRoot()})
	m, err := st.LoadManifest(round.Images[0].Path)
	if err != nil {
		t.Fatalf("holder manifest: %v", err)
	}
	hot := m.HotOrder()
	return st, hot[len(hot)-1].Ref.Hash
}

// TestLazyRestartHealsCorruptPendingChunk is the lazy twin of
// TestRestartHealsCorruptLocalChunk: the corrupt chunk sits in the
// pending (post-copy) set rather than the skeleton.  The restore must
// still verify it up front, quarantine it, and let the pull stream
// fetch the clean copy from the other holder, so the drain ends with
// a complete, verified store.
func TestLazyRestartHealsCorruptPendingChunk(t *testing.T) {
	e := newEnv(t, 4, Config{Compress: true, Store: true, ReplicaFactor: 2, CkptWorkers: 2,
		LazyRestore: true})
	e.drive(t, func(task *kernel.Task) {
		round := restoreEnv(t, e, task) // workload dead; holders: node02, node03
		st2, hash := coldestChunk(t, e, 2, round)
		if !st2.CorruptChunk(rand.New(rand.NewSource(3)), hash) {
			t.Fatalf("chunk %s not present on node02", hash)
		}

		stats, rerr := e.sys.RestartAll(task, round, Placement{"node01": 2})
		if rerr != nil {
			t.Fatalf("lazy restart on corrupted holder: %v", rerr)
		}
		if stats.FetchedChunks < 1 {
			t.Errorf("no chunks fetched: the corrupt pending chunk was taken as local (stats %+v)", stats)
		}
		if q := st2.Quarantined(); len(q) != 1 || q[0] != hash {
			t.Errorf("quarantine = %v, want [%s]", q, hash)
		}
		m, err := st2.LoadManifest(round.Images[0].Path)
		if err != nil {
			t.Fatalf("manifest on healed holder: %v", err)
		}
		if missing := st2.MissingChunks(m.Refs()); len(missing) != 0 {
			t.Errorf("%d chunks missing after the drain", len(missing))
		}
		for _, ref := range m.Refs() {
			if err := st2.VerifyChunk(ref); err != nil {
				t.Errorf("chunk %s fails verification after the drain: %v", ref.Hash, err)
			}
		}
	})
}

// TestLazyRestartFailsOnChunkCorruptedMidDrain corrupts a pending
// chunk after the restore verified it, while the post-copy tail is
// still installing from the local store.  The verified read must
// quarantine it and fail the restart with the typed corruption —
// never mark the chunk present without its bytes.
func TestLazyRestartFailsOnChunkCorruptedMidDrain(t *testing.T) {
	e := newEnv(t, 4, Config{Compress: true, Store: true, ReplicaFactor: 2, CkptWorkers: 2,
		LazyRestore: true})
	e.drive(t, func(task *kernel.Task) {
		round := restoreEnv(t, e, task)
		st2, hash := coldestChunk(t, e, 2, round)

		var rerr error
		done := false
		task.P.SpawnTask("restarter", false, func(rt *kernel.Task) {
			_, rerr = e.sys.RestartAll(rt, round, Placement{"node01": 2})
			done = true
		})
		task.Idle(100 * time.Millisecond)
		if done {
			t.Fatal("restart finished before the mid-drain corruption")
		}
		if !st2.CorruptChunk(rand.New(rand.NewSource(3)), hash) {
			t.Fatalf("chunk %s not present on node02", hash)
		}
		for !done {
			task.Idle(20 * time.Millisecond)
		}
		if rerr == nil {
			t.Fatal("lazy restart installed a chunk corrupted mid-drain")
		}
		if msg := rerr.Error(); !strings.Contains(msg, "corrupt chunk") || !strings.Contains(msg, hash) {
			t.Errorf("restart error %q does not name the corrupt chunk %s", msg, hash)
		}
		if q := st2.Quarantined(); len(q) != 1 || q[0] != hash {
			t.Errorf("quarantine = %v, want [%s]", q, hash)
		}
	})
}

// TestScrubDetectsCorruptionAndRepairRestoresRedundancy runs the
// background scrub daemon against a silently corrupted holder: the
// scrubber must find the flipped bit without any reader touching the
// chunk, quarantine it, and the OnCorrupt hook must drive a repair
// that re-sources the generation from a clean holder — full redundancy
// restored end to end.
func TestScrubDetectsCorruptionAndRepairRestoresRedundancy(t *testing.T) {
	e := newEnv(t, 4, Config{Compress: true, Store: true, ReplicaFactor: 2, CkptWorkers: 2})
	// Enable the scrub daemon (off by default) before the replica
	// daemons boot with the first engine step.
	e.c.Params.ScrubInterval = 150 * time.Millisecond
	e.drive(t, func(task *kernel.Task) {
		e.c.Register("bigdirty", bigDirty{})
		if _, err := e.sys.Launch(1, "bigdirty", "64"); err != nil {
			t.Fatal(err)
		}
		task.Compute(50 * time.Millisecond)
		round, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Fatal(err)
		}
		e.sys.Replica.WaitIdle(task)

		st2 := store.Open(e.c.Node(2), store.Config{Root: e.sys.StoreRoot()})
		m, err := st2.LoadManifest(round.Images[0].Path)
		if err != nil {
			t.Fatalf("holder manifest: %v", err)
		}
		hash, ok := st2.CorruptRandomChunk(rand.New(rand.NewSource(5)))
		if !ok {
			t.Fatal("nothing to corrupt on node02")
		}
		preCorrupt := e.sys.Replica.Stats.ScrubCorrupt

		// The scrubber finds the bad chunk and repair re-sources it; no
		// reader ever touches the data.
		deadline := task.Now().Add(30 * time.Second)
		healed := false
		for task.Now() < deadline {
			if e.sys.Replica.Stats.ScrubCorrupt > preCorrupt &&
				len(st2.MissingChunks(m.Refs())) == 0 {
				healed = true
				break
			}
			task.Compute(50 * time.Millisecond)
		}
		if !healed {
			t.Fatalf("scrub+repair never healed the holder (scrubCorrupt %d -> %d, missing %d)",
				preCorrupt, e.sys.Replica.Stats.ScrubCorrupt,
				len(st2.MissingChunks(m.Refs())))
		}
		found := false
		for _, q := range st2.Quarantined() {
			if q == hash {
				found = true
			}
		}
		if !found {
			t.Errorf("scrubbed chunk %s not quarantined", hash)
		}
		for _, ref := range m.Refs() {
			if err := st2.VerifyChunk(ref); err != nil {
				t.Errorf("chunk %s fails verification after repair: %v", ref.Hash, err)
			}
		}
		if e.sys.Replica.Stats.RepairJobs < 1 {
			t.Errorf("repair stats = %+v, want at least one repair job", e.sys.Replica.Stats)
		}
	})
}
