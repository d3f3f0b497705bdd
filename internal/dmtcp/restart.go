package dmtcp

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/bin"
	"repro/internal/coordstate"
	"repro/internal/kernel"
	"repro/internal/mtcp"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/retry"
	"repro/internal/sim"
	"repro/internal/store"
)

// fetchFromEnv names the replica host dmtcp_restart pulls missing
// manifests and chunks from (set by RestartAll / failure recovery).
const fetchFromEnv = "DMTCP_FETCH_FROM"

// holderFetcher implements mtcp.ChunkFetcher over the replica daemon
// protocol with holder fallback: the streamed restore pipeline pulls
// from the primary serving holder, and when that holder dies
// mid-fetch (its node lost, its daemon gone) the fetch resumes — with
// only the still-missing chunks — against the next live holder the
// coordinator's placement map can verify holds a complete copy.  Only
// when every candidate is gone does it fail, with a typed
// replica.HolderLostError.  Chunks landed before a failure stay
// durable, so no bytes are re-fetched and no partial install can
// corrupt the image (the pipeline discards everything on error).
type holderFetcher struct {
	sys     *System
	path    string // manifest path being restored
	primary string // DMTCP_FETCH_FROM: the holder the restart was pointed at
	workers int
	target  *kernel.Node // restart node: never a fetch source
	tried   []string
}

// candidates returns the live hosts worth trying, primary first, then
// every placement-verified complete holder — minus hosts already
// tried, the restart node itself, and dead nodes.
func (f *holderFetcher) candidates() []string {
	seen := map[string]bool{f.target.Hostname: true}
	for _, h := range f.tried {
		seen[h] = true
	}
	var out []string
	add := func(h string) {
		if h == "" || seen[h] {
			return
		}
		seen[h] = true
		if n := f.sys.C.LookupHost(h); n == nil || n.Down {
			return
		}
		out = append(out, h)
	}
	add(f.primary)
	if name, gen, ok := store.NameForManifest(f.path); ok {
		if pi := f.sys.Coord.st().Placement[name]; pi != nil {
			for _, h := range f.sys.Coord.candidateHolders(pi, gen) {
				if f.sys.Coord.holderComplete(h, name, gen) {
					add(h)
				}
			}
		}
	}
	return out
}

// ensureManifest makes the manifest local, trying holders in order.
func (f *holderFetcher) ensureManifest(t *kernel.Task) error {
	if t.P.Node.FS.Exists(f.path) {
		return nil
	}
	var lastErr error
	for _, h := range f.candidates() {
		if _, err := f.sys.Replica.EnsureManifest(t, f.path, h); err == nil {
			return nil
		} else {
			lastErr = err
			f.tried = append(f.tried, h)
		}
	}
	return &replica.HolderLostError{Hosts: append([]string(nil), f.tried...), Err: lastErr}
}

// Fetch implements mtcp.ChunkFetcher: one single-holder pull stream
// (f.workers connections) per candidate, each resuming with only the
// chunks its predecessors left missing.
func (f *holderFetcher) Fetch(t *kernel.Task, refs []store.ChunkRef, deliver func(store.ChunkRef)) (int64, int, error) {
	local := store.Open(t.P.Node, store.Config{Root: f.sys.StoreRoot()})
	remaining := refs
	var total int64
	count := 0
	var lastErr error
	for {
		cands := f.candidates()
		if len(cands) == 0 {
			break
		}
		h := cands[0]
		ps := replica.NewPullStream(t, f.sys.Replica, []string{h}, f.workers, remaining, deliver)
		err := ps.Wait(t)
		total += ps.Bytes()
		count += ps.Chunks()
		if err == nil {
			return total, count, nil
		}
		lastErr = errors.Unwrap(err) // the cause, not the one-holder loss
		f.tried = append(f.tried, h)
		remaining = local.MissingChunks(remaining)
		if len(remaining) == 0 {
			return total, count, nil
		}
	}
	return total, count, &replica.HolderLostError{Hosts: append([]string(nil), f.tried...), Err: lastErr}
}

// fetchAll makes the whole manifest generation local before any
// install starts: the serial restore's fetch-then-install pre-fetch.
func (f *holderFetcher) fetchAll(t *kernel.Task) (int64, int, error) {
	if err := f.ensureManifest(t); err != nil {
		return 0, 0, err
	}
	m, err := store.Open(t.P.Node, store.Config{Root: f.sys.StoreRoot()}).LoadManifest(f.path)
	if err != nil {
		return 0, 0, err
	}
	return f.Fetch(t, m.Refs(), nil)
}

// restartMain is the dmtcp_restart program (§4.4): a single restart
// process per host that reopens files and ptys, reconnects sockets
// through the discovery service, forks into the user processes,
// rearranges descriptors, restores memory and threads, refills kernel
// buffers, and resumes.
//
// args: <nRestartProcs> <nGlobalProcs> <generation> <image>...
func (s *System) restartMain(t *kernel.Task, args []string) {
	if len(args) < 4 {
		t.Printf("usage: dmtcp_restart nRestart nGlobal gen images...\n")
		t.Exit(2)
	}
	nRestart, _ := strconv.Atoi(args[0])
	nGlobal, _ := strconv.Atoi(args[1])
	gen := args[2]
	paths := args[3:]

	start := t.Now()
	var st RestartStages

	// Coordinator link for discovery and restart barriers.  A restart
	// spawned into a takeover interregnum (the leader died after the
	// group was journaled, the standby is still electing itself) waits
	// out the election instead of dying.
	cfd, _, err := s.redialCoord(t, retry.RestartDial(s.C.Params), nil)
	if err != nil {
		t.Printf("dmtcp_restart: coordinator: %v\n", err)
		t.Exit(1)
	}
	// fail reports a fatal error to the coordinator (so a blocked
	// RestartAll returns an error rather than waiting forever for
	// stage times) and exits non-zero.
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		t.Printf("dmtcp_restart: %s\n", msg)
		var e bin.Encoder
		e.B = append(e.B, msgRestartFail)
		e.B = append(e.B, msg...)
		t.SendFrame(cfd, e.B)
		t.Exit(1)
	}

	// ---- Image loading ---------------------------------------------------
	// Store manifests ride the one restore pipeline (mtcp.Restore): a
	// pull-stream fetch from a replica holder (when DMTCP_FETCH_FROM
	// names one) overlapped with a restore worker pool that verifies,
	// decompresses and installs each chunk as it arrives; chunks already
	// local short-circuit the network stage, so node-failure recovery,
	// store-mode migration, and plain store restarts all ride one path.
	// Per-image pipelines run concurrently — the node's core scheduler
	// arbitrates.  Monolithic images load headers here and pay their
	// bulk in the forked children.
	from := t.P.Env[fetchFromEnv]
	fetchable := from != "" && s.Replica != nil
	workers := s.Cfg.CkptWorkers
	if workers == 0 && !s.Cfg.SerialRestore {
		// Adaptive (CkptWorkers == 0): size the restore pool from the
		// node's observed idle cores — a restart on an idle node gets
		// the whole machine, one beside live tenants stays polite.  The
		// serial baseline keeps 0 == serial.
		workers = t.P.Node.CPU().IdleCores()
	}
	var maxPipe time.Duration
	images := make([]*mtcp.Image, len(paths))

	if s.Cfg.SerialRestore && fetchable {
		// The fetch-then-install baseline: pull every missing chunk
		// first; the pipelines below then install from local chunks.
		fStart := t.Now()
		for _, path := range paths {
			if !store.IsManifestPath(path) {
				continue
			}
			hf := &holderFetcher{sys: s, path: path, primary: from,
				workers: workers, target: t.P.Node}
			bytes, chunks, err := hf.fetchAll(t)
			if err != nil {
				fail("fetch %s: %v", path, err)
			}
			st.FetchedBytes += bytes
			st.FetchedChunks += chunks
		}
		st.Fetch = t.Now().Sub(fStart)
	}
	// Lazy (post-copy) restore: the pipeline installs only a skeleton —
	// manifest, metadata, and the hottest few chunks — and the rest is
	// pulled in the background after resume, striped across all
	// placement-verified complete holders, with demand faults jumping
	// the queue.  Incompatible with the serial baseline by construction.
	lazy := s.Cfg.LazyRestore && !s.Cfg.SerialRestore
	lazies := make([]*mtcp.LazyState, len(paths))
	ctrls := make([]*lazyCtrl, len(paths))
	stats := make([]mtcp.RestoreStats, len(paths))
	errs := make([]error, len(paths))
	pending := 0
	pipeW := sim.NewWaitQueue(t.P.Node.Cluster.Eng, "restart.pipe")
	for i, path := range paths {
		if !store.IsManifestPath(path) {
			continue
		}
		i, path := i, path
		pending++
		t.P.SpawnTask("restore-pipe", true, func(pt *kernel.Task) {
			defer func() {
				pending--
				pipeW.WakeAll()
			}()
			opts := mtcp.RestoreOptions{Workers: workers, Lazy: lazy}
			if fetchable && !s.Cfg.SerialRestore {
				hf := &holderFetcher{sys: s, path: path, primary: from,
					workers: workers, target: pt.P.Node}
				if err := hf.ensureManifest(pt); err != nil {
					errs[i] = err
					return
				}
				opts.Fetch = hf
			}
			images[i], lazies[i], stats[i], errs[i] = mtcp.Restore(pt, path, opts)
		})
	}
	for pending > 0 {
		pipeW.Wait(t.T)
	}
	for i, path := range paths {
		if errs[i] != nil {
			fail("restore %s: %v", path, errs[i])
		}
		if images[i] == nil {
			continue
		}
		rs := stats[i]
		if rs.Fetch > st.Fetch {
			st.Fetch = rs.Fetch
		}
		st.FetchedBytes += rs.FetchedBytes
		st.FetchedChunks += rs.FetchedChunks
		st.OverlapBytes += rs.OverlapBytes
		if rs.Workers > st.Workers {
			st.Workers = rs.Workers
		}
		if rs.Took > maxPipe {
			maxPipe = rs.Took
		}
	}
	// Arm the post-copy tails now, before files/conns/fork: the
	// striped prefetch overlaps everything between here and resume.
	for i, lz := range lazies {
		if lz == nil || len(lz.Pending) == 0 {
			continue
		}
		hf := &holderFetcher{sys: s, path: paths[i], primary: from,
			workers: workers, target: t.P.Node}
		holders := hf.candidates()
		if n := s.Cfg.LazyHolders; n > 0 && len(holders) > n {
			holders = holders[:n]
		}
		ctrls[i] = newLazyCtrl(s, t, images[i], lz, holders)
	}

	// Load monolithic images (headers + metadata tables); manifests are
	// already in hand.
	type procImage struct {
		path  string
		img   *mtcp.Image
		fds   []FDRec
		conns []ConnRec
		vpid  kernel.Pid
		table map[kernel.Pid]kernel.Pid
		lazy  *lazyCtrl
	}
	var imgs []*procImage
	for i, path := range paths {
		img := images[i]
		if img == nil {
			var err error
			img, err = mtcp.LoadImage(t, path)
			if err != nil {
				fail("%s: %v", path, err)
			}
		}
		pi := &procImage{path: path, img: img, lazy: ctrls[i]}
		if b, ok := img.Ext["dmtcp.fdtable"]; ok {
			var err error
			pi.fds, err = decodeFDTable(b)
			if err != nil {
				fail("%s: bad fd table: %v", path, err)
			}
		}
		if b, ok := img.Ext["dmtcp.conns"]; ok {
			var err error
			pi.conns, err = decodeConns(b)
			if err != nil {
				fail("%s: bad conn table: %v", path, err)
			}
		}
		if b, ok := img.Ext["dmtcp.pids"]; ok {
			var err error
			pi.vpid, pi.table, err = decodePids(b)
			if err != nil {
				fail("%s: bad pid table: %v", path, err)
			}
		}
		imgs = append(imgs, pi)
	}

	// Journal per-rank fetch progress: a coordinator promoted
	// mid-restart learns which ranks already hold their images.  The
	// rank identity is the image path — unique per process even when
	// vpids from different origin hosts collide on one restart target.
	// Best-effort — a dead leader is healed by the barrier rejoins
	// below, which re-report each rank's furthest stage.
	for _, pi := range imgs {
		t.SendFrame(cfd, rankFrame(gen, pi.path, coordstate.RestartRankFetched))
	}

	// ---- Step 1: reopen files and recreate ptys ------------------------
	filesStart := t.Now()
	objects := make(map[int64]*kernel.OpenFile) // OFID → restored object
	ptyNames := make(map[string]string)         // old pts name → new
	ptyPairs := make(map[string][2]*kernel.OpenFile)
	for _, pi := range imgs {
		for _, rec := range pi.fds {
			if _, done := objects[rec.OFID]; done {
				continue
			}
			switch rec.Kind {
			case FDFile:
				if !t.P.Node.FS.Exists(rec.Path) {
					t.P.Node.FS.WriteFile(rec.Path, nil, 0)
				}
				fd, err := t.Open(rec.Path)
				if err != nil {
					continue
				}
				of, _ := t.P.FD(fd)
				of.File.Offset = rec.Offset
				objects[rec.OFID] = of
			case FDListener:
				fd, err := t.ListenTCP(rec.Port)
				if err != nil {
					t.Printf("dmtcp_restart: rebind %d: %v\n", rec.Port, err)
					continue
				}
				of, _ := t.P.FD(fd)
				objects[rec.OFID] = of
			case FDUnixListener:
				fd := t.UnixSocket()
				if err := t.BindUnix(fd, rec.Path); err == nil {
					t.Listen(fd)
				}
				of, _ := t.P.FD(fd)
				objects[rec.OFID] = of
			case FDPtyMaster, FDPtySlave:
				pair, ok := ptyPairs[rec.Pty]
				if !ok {
					mfd, newName := t.Openpt()
					sfd, err := t.OpenPts(newName)
					if err != nil {
						continue
					}
					mof, _ := t.P.FD(mfd)
					sof, _ := t.P.FD(sfd)
					t.TcSetAttr(mfd, rec.Modes)
					pair = [2]*kernel.OpenFile{mof, sof}
					ptyPairs[rec.Pty] = pair
					ptyNames[rec.Pty] = newName
				}
				if rec.Kind == FDPtyMaster {
					objects[rec.OFID] = pair[0]
				} else {
					objects[rec.OFID] = pair[1]
				}
			}
		}
	}
	st.Files = t.Now().Sub(filesStart)

	// ---- Step 2: recreate and reconnect sockets ------------------------
	s2 := t.Now()
	type connSide struct {
		ofid   int64
		accept bool
	}
	sides := make(map[string][]connSide)
	var guidOrder []string
	for _, pi := range imgs {
		for _, rec := range pi.fds {
			if rec.Kind != FDConn {
				continue
			}
			dup := false
			for _, cs := range sides[rec.GUID] {
				if cs.ofid == rec.OFID {
					dup = true // shared description seen from another process
				}
			}
			if dup {
				continue
			}
			if len(sides[rec.GUID]) == 0 {
				guidOrder = append(guidOrder, rec.GUID)
			}
			sides[rec.GUID] = append(sides[rec.GUID], connSide{ofid: rec.OFID, accept: rec.Accept})
		}
	}
	// Local pairs first: both endpoints restored by this process.
	var remote []string
	for _, guid := range guidOrder {
		ss := sides[guid]
		if len(ss) == 2 {
			a, b := t.SocketPair()
			ofA, _ := t.P.FD(a)
			ofB, _ := t.P.FD(b)
			// Connector gets the first end, acceptor the second.
			if ss[0].accept {
				ss[0], ss[1] = ss[1], ss[0]
			}
			objects[ss[0].ofid] = ofA
			objects[ss[1].ofid] = ofB
		} else {
			remote = append(remote, guid)
		}
	}
	// Remote endpoints: the acceptor side advertises its restart
	// listener; the connector queries the discovery service and
	// connects (§4.4).
	inbound := 0
	for _, guid := range remote {
		if sides[guid][0].accept {
			inbound++
		}
	}
	if len(remote) > 0 {
		lfd := t.Socket()
		t.Bind(lfd, 0)
		t.Listen(lfd)
		lof, _ := t.P.FD(lfd)
		port := lof.Listen.Addr().Port
		got := 0
		gotW := sim.NewWaitQueue(t.P.Node.Cluster.Eng, "restart.accept")
		if inbound > 0 {
			n := inbound
			t.P.SpawnTask("racceptor", false, func(a *kernel.Task) {
				for i := 0; i < n; i++ {
					cfd2, err := a.Accept(lfd)
					if err != nil {
						return
					}
					frame, err := a.RecvFrame(cfd2)
					if err != nil {
						continue
					}
					d := &bin.Decoder{B: frame}
					guid := d.Str()
					of, _ := a.P.FD(cfd2)
					for _, cs := range sides[guid] {
						objects[cs.ofid] = of
					}
					got++
					gotW.WakeAll()
				}
			})
		}
		for _, guid := range remote {
			if !sides[guid][0].accept {
				continue
			}
			var e bin.Encoder
			e.B = append(e.B, msgAdvertise)
			e.Str(guid)
			e.Str(t.P.Node.Hostname)
			e.Int(port)
			t.SendFrame(cfd, e.B)
		}
		for _, guid := range remote {
			if sides[guid][0].accept {
				continue
			}
			var e bin.Encoder
			e.B = append(e.B, msgQuery)
			e.Str(guid)
			t.SendFrame(cfd, e.B)
			frame, err := t.RecvFrame(cfd)
			if err != nil {
				break
			}
			d := &bin.Decoder{B: frame[1:]}
			_ = d.Str() // guid echo
			addr := kernel.Addr{Host: d.Str(), Port: d.Int()}
			sfd := t.Socket()
			if err := t.Connect(sfd, addr); err != nil {
				t.Printf("dmtcp_restart: reconnect %s: %v\n", guid, err)
				continue
			}
			var h bin.Encoder
			h.Str(guid)
			t.SendFrame(sfd, h.B)
			of, _ := t.P.FD(sfd)
			objects[sides[guid][0].ofid] = of
		}
		for got < inbound {
			gotW.Wait(t.T)
		}
	}
	st.Conns = t.Now().Sub(s2)

	// ---- Steps 3–7: fork, rearrange, restore, refill, resume -----------
	vpidToProc := make(map[kernel.Pid]*kernel.Process)
	gateOpen := false
	gate := sim.NewWaitQueue(t.P.Node.Cluster.Eng, "restart.gate")
	doneCount := 0
	doneW := sim.NewWaitQueue(t.P.Node.Cluster.Eng, "restart.done")
	var memMax, refillMax time.Duration

	report := func(mem, refill time.Duration) {
		if mem > memMax {
			memMax = mem
		}
		if refill > refillMax {
			refillMax = refill
		}
		doneCount++
		doneW.WakeAll()
	}
	for _, pi := range imgs {
		pi := pi
		pid := t.ForkRaw(pi.img.ProgName, func(c *kernel.Task) {
			for !gateOpen {
				gate.Wait(c.T)
			}
			// restoreProcess calls report just before handing control
			// to the program's Restore; when Restore returns, this
			// main task ends and the process exits normally.
			s.restoreProcess(c, pi.path, pi.img, pi.fds, pi.conns,
				pi.vpid, pi.table, objects, ptyNames, vpidToProc, nGlobal, gen,
				pi.lazy, report)
		})
		proc, _ := t.P.Kern.Process(pid)
		vpidToProc[pi.vpid] = proc
	}
	// Reconstruct app-level parent-child relationships among restored
	// processes on this host.
	for _, pi := range imgs {
		parent := vpidToProc[pi.vpid]
		for virt := range pi.table {
			if virt == pi.vpid {
				continue
			}
			if child, ok := vpidToProc[virt]; ok && parent != nil {
				t.P.Kern.Reparent(child, parent)
			}
		}
	}
	gateOpen = true
	gate.WakeAll()
	for doneCount < len(imgs) {
		doneW.Wait(t.T)
	}
	st.Memory = memMax
	if maxPipe > st.Memory {
		// Streamed restores pay the bulk (reads + decompression) in the
		// pipeline, not the children: report the pipeline wall time as
		// the memory-reload stage.  It overlaps the Fetch stage by
		// construction, so Total < Fetch + Memory is the win, not an
		// accounting error.
		st.Memory = maxPipe
	}
	st.Refill = refillMax

	// Post-copy tail: the processes are already running on their
	// skeletons; block here only for the background drain, then fold
	// the pull-stream's bytes into the fetch accounting.  ResumePause
	// is the availability metric (start → last process resumed);
	// Total still covers the drain, matching full-install MTTR.
	resumeEnd := t.Now()
	anyLazy := false
	for _, lc := range ctrls {
		if lc == nil {
			continue
		}
		anyLazy = true
		if err := lc.drain(t); err != nil {
			fail("lazy drain: %v", err)
		}
		st.FetchedBytes += lc.ps.Bytes()
		st.FetchedChunks += lc.ps.Chunks()
		st.DemandBytes += lc.ps.DemandBytes()
		st.PrefetchBytes += lc.ps.PrefetchBytes()
		st.DemandFaults += lc.faults
	}
	if anyLazy {
		st.ResumePause = resumeEnd.Sub(start)
		st.PrefetchDrain = t.Now().Sub(resumeEnd)
	}
	st.Total = t.Now().Sub(start)

	// Trace the restart: sequential segments that exactly partition
	// [start, end] under one enclosing span — image loading (incl. the
	// streamed restore pipelines), file/pty reopen, socket
	// reconnection, the forked children's restore/refill/resume, and
	// (lazy only) the post-resume prefetch drain.
	if tr := t.Trace(); tr.Enabled() {
		end, host, trk := t.Now(), t.Host(), fmt.Sprintf("%s[%d]", t.P.ProgName, t.P.Pid)
		connsEnd := s2.Add(st.Conns)
		tr.Span(host, trk, "restart.total", "restart", start, end,
			obs.A("procs", int64(len(imgs))), obs.A("fetched_bytes", st.FetchedBytes),
			obs.A("overlap_bytes", st.OverlapBytes), obs.A("workers", int64(st.Workers)),
			obs.A("demand_bytes", st.DemandBytes), obs.A("prefetch_bytes", st.PrefetchBytes))
		tr.Span(host, trk, "restart.images", "restart", start, filesStart)
		tr.Span(host, trk, "restart.files", "restart", filesStart, s2)
		tr.Span(host, trk, "restart.conns", "restart", s2, connsEnd)
		tr.Span(host, trk, "restart.procs", "restart", connsEnd, resumeEnd)
		if anyLazy {
			tr.Span(host, trk, "restart.prefetch", "restart", resumeEnd, end,
				obs.A("demand_faults", int64(st.DemandFaults)))
		}
		tr.Add(host, "restart.fetched_bytes", end, st.FetchedBytes)
	}

	// Report restart stage times; the coordinator aggregates across
	// hosts (Table 1b).
	var e bin.Encoder
	e.B = append(e.B, msgRestartEnd)
	e.Int(nRestart)
	coordstate.EncodeRestart(&e, st)
	// The leader may have died after the last barrier released: redial
	// the coordinator address (a promoted standby rebinds it) and
	// re-send, so the blocked RestartAll still gets its stage times.
	// A failed send was never journaled, so the retry delivers at most
	// once.
	for t.SendFrame(cfd, e.B) != nil {
		nfd, _, err := s.redialCoord(t, retry.RestartDial(s.C.Params), nil)
		if err != nil {
			break
		}
		cfd = nfd
	}

	// Remain as the parent of the restored processes (the paper's
	// restart process stays in the tree after forking).
	for {
		if _, _, err := t.WaitAny(); err != nil {
			return
		}
	}
}

// restoreProcess runs inside a forked child of the restart program:
// descriptor rearrangement, memory restore, manager reconstruction,
// refill, and thread resume.  It reports the memory and refill stage
// durations through report, then runs the program's Restore inline in
// the calling (main) task.
func (s *System) restoreProcess(
	c *kernel.Task,
	path string,
	img *mtcp.Image,
	fdRecs []FDRec,
	conns []ConnRec,
	vpid kernel.Pid,
	pidTable map[kernel.Pid]kernel.Pid,
	objects map[int64]*kernel.OpenFile,
	ptyNames map[string]string,
	vpidToProc map[kernel.Pid]*kernel.Process,
	nGlobal int,
	gen string,
	lazy *lazyCtrl,
	report func(mem, refill time.Duration),
) {
	p := c.P

	// ---- Step 4: rearrange FDs (dup2/close) ----------------------------
	for _, fd := range p.SortedFDs() {
		c.Close(fd)
	}
	for _, rec := range fdRecs {
		var of *kernel.OpenFile
		if rec.Kind == FDConsole {
			of = kernel.NewConsole(p)
		} else {
			of = objects[rec.OFID]
		}
		if of == nil {
			continue
		}
		of.Owner = kernel.Pid(rec.Owner)
		p.InstallFD(rec.FD, of)
	}

	// ---- Step 5: restore memory and threads ----------------------------
	m5 := c.Now()
	mtcp.ChargeMemoryRestoreN(c, img, path, s.Cfg.CkptWorkers)
	mtcp.InstallMemory(p, img, c, func(t *kernel.Task, rec mtcp.AreaRecord) *kernel.ShmSegment {
		seg := s.resolveShm(t, rec.ShmBacking, rec.Bytes, rec.Class())
		if len(seg.Payload) == 0 && len(rec.Payload) > 0 {
			// First process to touch the segment writes the
			// checkpointed contents back (§4.5: both writers carry
			// the same data).
			seg.Payload = append([]byte(nil), rec.Payload...)
		}
		return seg
	})
	if lazy != nil {
		// Post-copy: InstallMemory copied whatever the background pull
		// had landed in the image buffers; arm presence maps and the
		// first-touch fault hook for the chunks still in flight.
		lazy.wire(p)
	}
	p.Env = make(map[string]string, len(img.Env))
	for k, v := range img.Env {
		p.Env[k] = v
	}

	// Rebuild the DMTCP manager with restored identity and tables.
	mgr := newManager(s, p)
	mgr.restored = true
	mgr.virtPid = vpid
	for virt := range pidTable {
		if proc, ok := vpidToProc[virt]; ok {
			mgr.pidTable[virt] = proc.Pid
		}
	}
	mgr.pidTable[vpid] = p.Pid
	for _, rec := range fdRecs {
		if rec.Kind != FDConn {
			continue
		}
		if of := objects[rec.OFID]; of != nil {
			mgr.socks[of] = &SockMeta{GUID: GUID(rec.GUID), Acceptor: rec.Accept}
		}
	}
	p.SetHooks(mgr)
	mgr.started = true
	mgr.sys.registerProc(mgr)
	mgr.connectCoordinator(c)
	memDur := c.Now().Sub(m5)

	// Global barrier: every restored process has its memory back
	// (the paper's restored processes resume at Barrier 5).
	s.groupBarrier(c, mgr, "r-mem-"+gen, nGlobal, gen, path, coordstate.RestartRankInstalled)

	// ---- Step 6: refill kernel buffers ---------------------------------
	r6 := c.Now()
	fds := p.FDs()
	findEndpoint := func(guid string) *kernel.TCPEndpoint {
		for _, of := range fds {
			if meta := mgr.socks[of]; meta != nil && string(meta.GUID) == guid && of.TCP != nil {
				return of.TCP
			}
		}
		if len(guid) > 4 && guid[:4] == "pty:" {
			// pty:<oldname>:<m|s>
			rest := guid[4:]
			end := rest[len(rest)-1]
			old := rest[:len(rest)-2]
			if newName, ok := ptyNames[old]; ok {
				for _, of := range fds {
					if of.Pty != nil && of.Pty.Pty.Name == newName {
						if (end == 'm') == of.Pty.Master {
							return of.Pty.Endpoint()
						}
					}
				}
			}
		}
		return nil
	}
	for _, cr := range conns {
		if len(cr.Drained) == 0 {
			continue
		}
		if ep := findEndpoint(cr.GUID); ep != nil {
			c.Compute(ep.RefillCost(int64(len(cr.Drained))).Duration())
			ep.Unread(cr.Drained)
		}
	}
	refillDur := c.Now().Sub(r6)
	childTrack := fmt.Sprintf("%s[%d]", img.ProgName, vpid)
	c.Trace().Span(c.Host(), childTrack, "restore.mem", "restart", m5, m5.Add(memDur))
	c.Trace().Span(c.Host(), childTrack, "restore.refill", "restart", r6, r6.Add(refillDur))
	report(memDur, refillDur)
	s.groupBarrier(c, mgr, "r-refill-"+gen, nGlobal, gen, path, coordstate.RestartRankResumed)

	// ---- Step 7: resume user threads -----------------------------------
	// Manager thread resumes its wait-for-checkpoint loop.
	mgr.mgrTask = p.SpawnTask("ckpt-mgr", true, mgr.loop)
	mgr.startHeartbeat()
	// Complete interrupted sends so streams stay byte-exact.
	for _, tr := range img.Threads {
		if tr.ContFD >= 0 && len(tr.ContData) > 0 {
			tr := tr
			p.SpawnTask("send-cont", false, func(sc *kernel.Task) {
				sc.Send(int(tr.ContFD), tr.ContData)
			})
		}
	}
	for _, cb := range mgr.aware.postRestart {
		cb(c)
	}
	prog, ok := s.C.Program(img.ProgName)
	if !ok {
		c.Printf("dmtcp_restart: unknown program %q\n", img.ProgName)
		return
	}
	res, ok := prog.(kernel.Resumable)
	if !ok {
		c.Printf("dmtcp_restart: program %q is not resumable\n", img.ProgName)
		return
	}
	res.Restore(c, p.LoadState())
}

// groupBarrier reports this rank's restart progress and joins a named
// cluster-wide barrier, blocking until released.  Both frames are
// journaled before any release goes out, so a standby promoted
// mid-restart can reconstruct the group's membership; both are
// idempotent, so the rank re-reports and rejoins after a takeover.
// id is the rank's image path, the identity RestartAll journaled in
// the restart-group event.
func (s *System) groupBarrier(t *kernel.Task, mgr *Manager, name string, total int, gen, id, stage string) {
	var e bin.Encoder
	e.B = append(e.B, msgGroup)
	e.Str(name)
	e.Int(total)
	e.Str(id)
	// A coordinator lost for good ends the session, not this process:
	// the rank resumes unsynchronized, as without a coordinator.
	_ = mgr.awaitRelease(t, name, rankFrame(gen, id, stage), e.B)
}

// rankFrame encodes a restart rank's progress report.
func rankFrame(gen, id, stage string) []byte {
	var e bin.Encoder
	e.B = append(e.B, msgRestartRank)
	e.Str(gen)
	e.Str(id)
	e.Str(stage)
	return e.B
}
