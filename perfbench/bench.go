package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// pass is one run of every trial of a workload, each on its own
// sub-seed of the run's seed.
type pass struct {
	trials []*trial
	cpu    map[string]int64 // CPU profile samples per layer (traced passes)
	cp     *analyze.Summary // critical-path analysis (traced passes)
	wall   time.Duration    // host: measured phases summed over trials
	alloc  uint64           // host: bytes allocated in measured phases
	events uint64           // engine events fired in measured phases
	setups []time.Duration  // host: one per trial and set-up repetition
	// setupOnly are the set-up repetitions; only their launch counts as
	// an operation.
	setupOnly []*trial
	err       error // profile decoding failure
}

// setupsPerTrial is how many extra set-ups each pass times after each
// of its trials.
const setupsPerTrial = 3

// subSeed derives trial i's seed; runs with different --seed values
// never share a trial seed.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// runPass runs every trial of w.  A traced pass attaches a fresh tracer
// to every cluster and profiles the host CPU while it runs.
func runPass(w workload, seed int64, traced bool) *pass {
	p := &pass{}
	var tr *obs.Tracer
	var prof bytes.Buffer
	if traced {
		tr = obs.NewTracer()
		experiments.Tracing = tr
		defer func() { experiments.Tracing = nil }()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			p.err = err
		}
	}
	for i := 0; i < trialsPerPass; i++ {
		// Start every trial from a collected heap so one trial's garbage
		// is not charged to the next.
		runtime.GC()
		t := runTrial(w.sc, subSeed(seed, i), false)
		p.trials = append(p.trials, t)
		p.wall += t.wall
		p.alloc += t.alloc
		p.events += t.events
		p.setups = append(p.setups, t.setup)
		// Set-up alone is a few milliseconds: repeat it so its median is
		// taken over enough samples, spread over the run rather than in
		// one burst, to be steady.
		for j := 0; j < setupsPerTrial; j++ {
			runtime.GC()
			s := runTrial(w.sc, subSeed(seed, i), true)
			if s.failed == 0 {
				p.setups = append(p.setups, s.setup)
			}
			p.setupOnly = append(p.setupOnly, s)
		}
	}
	if traced {
		pprof.StopCPUProfile()
		p.cp = analyze.Analyze(tr)
		p.cpu = map[string]int64{}
		if p.err == nil {
			p.err = attribute(prof.Bytes(), p.cpu)
		}
	}
	return p
}

// fingerprint renders everything a pass computed in virtual time.  Two
// passes over the same seeds must render identically.
func (p *pass) fingerprint() string {
	var b strings.Builder
	for _, t := range p.trials {
		fmt.Fprintf(&b, "seed %d ops %d/%d span %d lost %d rec %v take %v\n",
			t.seed, t.failed, t.attempted, t.span, t.lost, t.recovery, t.takeover)
		for _, r := range t.rounds {
			fmt.Fprintf(&b, " round %d procs %d %+v bytes %d raw %d dedup %d overlap %d\n",
				r.Index, r.NumProcs, r.Stages, r.Bytes, r.RawBytes, r.DedupBytes, r.OverlapBytes)
		}
		for _, s := range t.restarts {
			fmt.Fprintf(&b, " restart %+v\n", *s)
		}
		fmt.Fprintf(&b, " replica %d %d %d %d\n", t.sentBytes, t.fetchBytes, t.journalBytes, t.journalEntries)
	}
	return b.String()
}

// run measures w for about d of host time: one warm-up pass, then
// passes until d is spent (at least two).  With traced set, untraced
// and traced passes alternate and the per-layer metrics are reported.
func run(w workload, seed int64, d time.Duration, traced bool) *report {
	r := &report{workload: w.name, seed: seed}
	warm := runPass(w, seed, false)
	ref := warm.fingerprint()
	var plain, tracedPasses []*pass
	start := time.Now()
	for i := 0; ; i++ {
		withTrace := traced && i%2 == 1
		p := runPass(w, seed, withTrace)
		if withTrace {
			tracedPasses = append(tracedPasses, p)
		} else {
			plain = append(plain, p)
		}
		if fp := p.fingerprint(); fp != ref {
			r.problems = append(r.problems, fmt.Sprintf(
				"pass %d (traced=%v) differs in virtual time from the warm-up pass of the same seeds:\n%s",
				i+1, withTrace, firstDiff(ref, fp)))
		}
		if p.events != warm.events {
			r.problems = append(r.problems, fmt.Sprintf("pass %d fired %d engine events, warm-up %d",
				i+1, p.events, warm.events))
		}
		if !withTrace && !allocAgrees(p.alloc, plain[0].alloc) {
			r.problems = append(r.problems, fmt.Sprintf("pass %d allocated %d bytes, first measured pass %d",
				i+1, p.alloc, plain[0].alloc))
		}
		for _, ts := range [][]*trial{p.trials, p.setupOnly} {
			for _, t := range ts {
				r.attempted += t.attempted
				r.failed += t.failed
				r.notes = append(r.notes, t.notes...)
				for _, wr := range t.wrong {
					r.problems = append(r.problems, fmt.Sprintf("seed %d: %s", t.seed, wr))
				}
			}
		}
		r.passes++
		enough := len(plain) >= 2 && (!traced || len(tracedPasses) >= 1)
		if enough && time.Since(start) >= d {
			break
		}
	}
	if traced {
		layerMetrics(r, plain, tracedPasses)
	} else {
		endToEnd(r, plain)
	}
	return r
}

// allocAgrees compares two passes' allocation.  Byte-exact equality is
// out of reach: map growth depends on per-map random hash seeds and
// the runtime recycles goroutine structures, which moves TotalAlloc by
// a few KB in hundreds of MB between identical passes.  Anything beyond
// 0.1% is a change in what the program allocates.
func allocAgrees(a, b uint64) bool {
	d := math.Abs(float64(a) - float64(b))
	return d <= 0.001*math.Max(float64(a), float64(b))
}

// firstDiff shows the first differing line of two fingerprints.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("  was: %s\n  now: %s", al[i], bl[i])
		}
	}
	return "  (different length)"
}

const mb = float64(model.MB)

// endToEnd reports the metrics a user of the system sees.  Virtual
// metrics come from one pass (all passes agree, or the run is
// incorrect); host metrics are medians over the measured passes.
func endToEnd(r *report, passes []*pass) {
	var setups, walls, allocs, peaks []float64
	for _, p := range passes {
		for _, s := range p.setups {
			setups = append(setups, s.Seconds())
		}
		for _, t := range p.trials {
			walls = append(walls, t.wall.Seconds())
			allocs = append(allocs, float64(t.alloc)/mb)
			peaks = append(peaks, float64(t.heapPeak)/mb)
		}
	}
	r.add("setup_s", median(setups), "s", "host",
		fmt.Sprintf("median of %d set-ups: NewEnv to job ready for its first checkpoint", len(setups)))
	// Every pass repeats the same deterministic work (checked against the
	// warm-up pass), and the sub-seeds of a pass differ in work by a few
	// percent, so most of the variation in a trial's host time is what a
	// shared host adds: other tenants slow the same work by tens of
	// percent for minutes at a time, and never speed it up.  The fastest
	// trial is the least disturbed estimate of what the work costs; the
	// median follows the neighbours.
	r.add("host_wall_s", minOf(walls), "s", "host",
		fmt.Sprintf("fastest of %d trials' measured phase (median %.3f, slowest %.3f)", len(walls), median(walls), maxOf(walls)))
	r.add("alloc_mb", median(allocs), "MB", "host", "TotalAlloc delta over a trial's measured phase, median")
	r.add("heap_peak_mb", median(peaks), "MB", "host", "largest live heap a collection measured in a trial, median")

	p := passes[0]
	var totals, sizes, recs []float64
	var span, lost time.Duration
	attempted, failed := 0, 0
	for _, t := range p.trials {
		for _, rd := range t.rounds {
			totals = append(totals, rd.Stages.Total.Seconds())
			sizes = append(sizes, float64(rd.Bytes)/mb)
		}
		for _, d := range t.recovery {
			recs = append(recs, d.Seconds())
		}
		span += t.span
		lost += t.lost
		attempted += t.attempted
		failed += t.failed
	}
	r.add("ckpt_p50_s", median(totals), "s", "virtual", fmt.Sprintf("median round latency over %d rounds", len(totals)))
	tv, pct := tail(totals)
	r.add("ckpt_tail_s", tv, "s", "virtual", fmt.Sprintf("p%d of %d rounds", pct, len(totals)))
	r.add("ckpt_mb", median(sizes), "MB", "virtual", "median bytes written per round")
	r.add("recovery_s", median(recs), "s", "virtual", fmt.Sprintf("median over %d failures", len(recs)))
	good := 0.0
	if span > 0 {
		good = float64(span-lost) / float64(span)
	}
	r.add("goodput", good, "ratio", "virtual", fmt.Sprintf("application share of %.1f s makespan", span.Seconds()))
	r.add("ok_frac", 1-float64(failed)/float64(max(attempted, 1)), "ratio", "",
		fmt.Sprintf("%d of %d operations of one pass succeeded", attempted-failed, attempted))
}

// layerMetrics reports the per-layer figures: stats the calls into each
// layer returned, engine counters, host CPU by layer from the traced
// passes' profiles, and the critical-path analyzer's view.
func layerMetrics(r *report, plain, traced []*pass) {
	p := plain[0]
	var walls, tWalls, ckptHost, rstHost []float64
	for _, q := range plain {
		walls = append(walls, q.wall.Seconds())
		var c, s time.Duration
		for _, t := range q.trials {
			c += t.ckptHost
			s += t.rstHost
		}
		ckptHost = append(ckptHost, c.Seconds())
		rstHost = append(rstHost, s.Seconds())
	}
	for _, q := range traced {
		tWalls = append(tWalls, q.wall.Seconds())
	}

	r.add("sim.events", float64(p.events), "count", "virtual", "engine events fired in one pass's measured phase")
	// Fastest passes, for the reason host_wall_s takes the fastest trial.
	r.add("sim.ns_per_event", minOf(walls)*1e9/math.Max(float64(p.events), 1), "ns", "host", "fastest untraced pass's host wall per event")

	cpu := map[string]int64{}
	var total int64
	for _, q := range traced {
		if q.err != nil {
			r.problems = append(r.problems, q.err.Error())
		}
		for k, v := range q.cpu {
			cpu[k] += v
			total += v
		}
	}
	var share float64
	for _, l := range cpuLayers {
		v := 100 * float64(cpu[l]) / math.Max(float64(total), 1)
		share += v
		r.add("host.cpu."+l, v, "%", "host", "")
	}
	if total == 0 || math.Abs(share-100) > 1 {
		r.problems = append(r.problems, fmt.Sprintf("host.cpu shares sum to %.2f%% over %d samples", share, total))
	}
	r.add("host.checkpoint_s", median(ckptHost), "s", "host", "host time inside Checkpoint calls, per pass")
	r.add("host.restart_s", median(rstHost), "s", "host", "host time inside RestartAll/Recover calls, per pass")

	var st [5][]float64
	var rs [5][]float64
	var raw, sizes, dedup []float64
	var newChunks, chunks int
	var rawSum, bytesSum, overlapSum, swept int64
	var sent, fetched, journal int64
	var takeovers []float64
	entries := 0
	for _, t := range p.trials {
		for _, rd := range t.rounds {
			s := rd.Stages
			for i, d := range []time.Duration{s.Suspend, s.Elect, s.Drain, s.Write, s.Refill} {
				st[i] = append(st[i], d.Seconds())
			}
			raw = append(raw, float64(rd.RawBytes)/mb)
			sizes = append(sizes, float64(rd.Bytes)/mb)
			dedup = append(dedup, float64(rd.DedupBytes)/mb)
			rawSum += rd.RawBytes
			bytesSum += rd.Bytes
			overlapSum += rd.OverlapBytes
			if rd.GC != nil {
				swept += rd.GC.SweptBytes
			}
			for _, img := range rd.Images {
				newChunks += img.NewChunks
				chunks += img.Chunks
			}
		}
		for _, s := range t.restarts {
			for i, d := range []time.Duration{s.Files, s.Conns, s.Memory, s.Fetch, s.Refill} {
				rs[i] = append(rs[i], d.Seconds())
			}
		}
		for _, d := range t.takeover {
			takeovers = append(takeovers, d.Seconds())
		}
		sent += t.sentBytes
		fetched += t.fetchBytes
		journal += t.journalBytes
		entries += t.journalEntries
	}
	for i, name := range []string{"suspend", "elect", "drain", "write", "refill"} {
		r.add("dmtcp."+name+"_s", median(st[i]), "s", "virtual", "median per round")
	}
	for i, name := range []string{"files", "conns", "memory", "fetch", "refill"} {
		r.add("restart."+name+"_s", median(rs[i]), "s", "virtual", fmt.Sprintf("median over %d restarts", len(rs[i])))
	}
	r.add("mtcp.raw_mb", median(raw), "MB", "virtual", "median uncompressed footprint per round")
	r.add("mtcp.compress_ratio", ratio(bytesSum, rawSum), "ratio", "virtual", "bytes written / raw bytes")
	r.add("store.new_chunk_frac", ratio(int64(newChunks), int64(chunks)), "ratio", "virtual", "chunks written / chunks referenced")
	r.add("store.dedup_mb", median(dedup), "MB", "virtual", "median per round")
	r.add("store.gc_swept_mb", float64(swept)/mb, "MB", "virtual", "per pass")
	r.add("replica.sent_mb", float64(sent)/mb, "MB", "virtual", "per pass")
	r.add("replica.overlap_frac", ratio(overlapSum, bytesSum), "ratio", "virtual", "bytes replicated before commit / bytes written")
	r.add("replica.fetch_mb", float64(fetched)/mb, "MB", "virtual", "per pass")
	r.add("replica.journal_kb", float64(journal)/float64(model.KB), "KB", "virtual", "per pass")
	r.add("coord.takeover_s", median(takeovers), "s", "virtual", fmt.Sprintf("median over %d takeovers", len(takeovers)))
	r.add("coord.journal_entries", float64(entries), "count", "virtual", "per pass")

	strag, eff := criticalPath(r, traced[0].cp)
	r.add("cp.straggler_max", strag, "ratio", "virtual", "largest write-stage straggler score of any round")
	r.add("cp.overlap_eff", eff, "ratio", "virtual", "median pipelined-write overlap efficiency per round")
	r.add("obs.trace_overhead", minOf(tWalls)/math.Max(minOf(walls), 1e-9)-1, "ratio", "host",
		"fastest traced / fastest untraced pass's host wall - 1, profiled only when traced")
}

// criticalPath checks that every traced round's blocking chain sums to
// the round's wall within 1%, and returns the largest straggler score
// and the median overlap efficiency.
func criticalPath(r *report, s *analyze.Summary) (float64, float64) {
	if s == nil || len(s.Rounds) == 0 {
		r.problems = append(r.problems, "traced pass recorded no checkpoint rounds")
		return 0, 0
	}
	strag := 0.0
	var effs []float64
	for _, rp := range s.Rounds {
		var sum int64
		for _, st := range rp.Stages {
			sum += st.WallNS
		}
		if rp.WallNS > 0 && math.Abs(float64(sum-rp.WallNS)) > 0.01*float64(rp.WallNS) {
			r.problems = append(r.problems, fmt.Sprintf(
				"round tag %d (run %d): stage chain sums to %d ns, wall %d ns", rp.Tag, rp.Run, sum, rp.WallNS))
		}
		for _, n := range rp.Nodes {
			strag = math.Max(strag, n.Straggler)
		}
		effs = append(effs, rp.OverlapEfficiency)
	}
	return strag, median(effs)
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
