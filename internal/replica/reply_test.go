package replica

import (
	"testing"
	"time"

	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/mtcp"
	"repro/internal/sim"
	"repro/internal/store"
)

// TestTruncatedIndexRepliesFailThePush pushes a committed generation
// to a fake peer that answers one of the index-list requests with a
// bare opAck.  A truncated want reply must not read as "the peer lacks
// nothing", and a truncated done reply must not read as "no holes":
// either way the push fails, Stats.Pushes does not move, and the
// source's watermark stays where commit left it.
func TestTruncatedIndexRepliesFailThePush(t *testing.T) {
	for _, tc := range []struct {
		name string
		bare byte // the request answered with a bare opAck
	}{
		{"want", opWant},
		{"done", opDone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			c := kernel.NewCluster(eng, model.Default(), 2)
			t.Cleanup(eng.Shutdown)
			sv := Install(c, Config{Factor: 1, Root: "/ckpt/store"})
			if _, err := c.Node(0).Kern.Spawn("dmtcp_replicad", nil, nil); err != nil {
				t.Fatal(err)
			}
			c.RegisterFunc("fakepeer", func(ft *kernel.Task, _ []string) {
				lfd, err := ft.ListenTCP(Port)
				if err != nil {
					t.Errorf("fake peer listen: %v", err)
					return
				}
				for {
					fd, err := ft.Accept(lfd)
					if err != nil {
						return
					}
					for {
						frame, err := ft.RecvFrame(fd)
						if err != nil {
							break
						}
						switch {
						case frame[0] == tc.bare:
							ft.SendFrame(fd, []byte{opAck})
						case frame[0] == opWant:
							ft.SendFrame(fd, indexReply(nil)) // "I hold every chunk"
						case frame[0] == opDone:
							ft.SendFrame(fd, indexReply(nil)) // "no holes"
						}
					}
					ft.Close(fd)
				}
			})
			if _, err := c.Node(1).Kern.Spawn("fakepeer", nil, nil); err != nil {
				t.Fatal(err)
			}
			c.RegisterFunc("m", func(task *kernel.Task, _ []string) {
				task.Compute(time.Millisecond) // let the daemons listen
				defer eng.Stop()
				path := commitImage(task)
				name, gen, _ := store.NameForManifest(path)
				sv.Enqueue(c.Node(0), Job{Name: name, Generation: gen, ManifestPath: path})
				sv.WaitIdle(task)
				if sv.Stats.Pushes != 0 || sv.Stats.Generations != 0 {
					t.Errorf("truncated %s reply counted as a push: %+v", tc.name, sv.Stats)
				}
				src := store.Open(c.Node(0), store.Config{Root: "/ckpt/store"})
				if wm, _ := src.ReplicationWatermark(name); wm != 0 {
					t.Errorf("watermark advanced to %d on a failed push", wm)
				}
			})
			if _, err := c.Node(0).Kern.Spawn("m", nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServeRejectsTruncatedIndexRequests sends the daemon want and done
// frames cut short: it must answer opErr rather than ack a partial
// index list.
func TestServeRejectsTruncatedIndexRequests(t *testing.T) {
	eng := sim.NewEngine(1)
	c := kernel.NewCluster(eng, model.Default(), 2)
	t.Cleanup(eng.Shutdown)
	if err := Install(c, Config{Factor: 1, Root: "/ckpt/store"}).StartAll(); err != nil {
		t.Fatal(err)
	}
	var want bin.Encoder
	want.B = append(want.B, opWant)
	want.U32(3) // three hashes announced, one sent
	want.Str("feedfacefeedface")
	var done bin.Encoder
	done.B = append(done.B, opDone)
	done.U32(64) // a manifest path length with no path behind it
	c.RegisterFunc("m", func(task *kernel.Task, _ []string) {
		task.Compute(time.Millisecond) // let the daemons listen
		defer eng.Stop()
		fd, err := dial(task, "node01")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer task.Close(fd)
		for _, frame := range [][]byte{want.B, done.B} {
			if err := task.SendFrame(fd, frame); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			resp, err := task.RecvFrame(fd)
			if err != nil || len(resp) == 0 || resp[0] != opErr {
				t.Errorf("truncated %q frame answered %q (%v), want opErr", frame[0], resp, err)
			}
		}
	})
	if _, err := c.Node(0).Kern.Spawn("m", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// commitImage writes one generation of a small synthetic image into
// the task's node store and returns its manifest path.
func commitImage(task *kernel.Task) string {
	p := task.P
	h := p.Mem.MapAnon("[heap]", 8*model.MB, model.ClassData)
	h.Payload = []byte("payload-v1")
	h.Touch(0, int64(len(h.Payload)))
	img := mtcp.Capture(p, 900)
	s := store.Open(p.Node, store.Config{Root: "/ckpt/store", Compress: true})
	res := mtcp.WriteImage(task, img, mtcp.WriteOptions{Dir: "/ckpt", Compress: true, Store: s})
	s.InitReplicationWatermark(task, mtcp.ImageBase(img))
	return res.Path
}
