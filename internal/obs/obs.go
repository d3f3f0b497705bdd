// Package obs is the simulator's virtual-time observability layer:
// spans, counters, and gauges recorded against the deterministic sim
// clock, exportable as Chrome trace-event JSON (loadable in Perfetto)
// and as a human summary table.
//
// The tracer is passive: it holds no reference to an engine and never
// reads a clock itself — every recording call carries explicit
// sim.Time stamps supplied by the caller.  That keeps the package
// dependency-free below sim, lets one tracer span several independent
// Sim runs (BeginRun separates them into distinct Perfetto process
// groups), and guarantees that traces are a pure function of the
// simulation's event order: identical seeds produce byte-identical
// trace files.
//
// All methods are safe on a nil *Tracer and do nothing, so
// instrumentation sites never need to guard against tracing being
// disabled.
package obs

import (
	"fmt"

	"repro/internal/sim"
)

// Arg is one key/value annotation on a span or instant event.  Values
// are int64 (bytes, counts, worker ids): everything the simulator
// measures is integral, and avoiding float formatting keeps the
// exported trace byte-stable.
type Arg struct {
	Key string
	Val int64
}

// A constructs an Arg inline.
func A(key string, val int64) Arg { return Arg{Key: key, Val: val} }

// Event phases, mirroring the Chrome trace-event format.
const (
	phaseSpan      = 'X' // complete event: ts + dur
	phaseInstant   = 'i' // instant event
	phaseCounter   = 'C' // counter sample
	phaseFlowStart = 's' // flow arrow origin
	phaseFlowEnd   = 'f' // flow arrow destination (binding point "e")
)

// Event is one recorded trace event.  Pid/Tid are the lazily assigned
// Perfetto process (host) and thread (track) ids.
type Event struct {
	Phase byte
	Name  string
	Cat   string
	Pid   int
	Tid   int
	Ts    sim.Time
	Dur   sim.Time // span length; 0 for instants and counters
	// ID binds the two ends of a flow arrow ('s'/'f' phases); 0
	// elsewhere.
	ID   int64
	Args []Arg
}

// trackRef names one registered Perfetto thread track.
type trackRef struct {
	pid  int
	tid  int
	name string
}

// procRef names one registered Perfetto process (a simulated host,
// qualified by run when one tracer spans several Sims).
type procRef struct {
	pid  int
	name string
}

// Snapshot is one round-boundary metrics sample: a labelled, ordered
// set of gauge values for one host.
type Snapshot struct {
	Label string
	Host  string
	Ts    sim.Time
	Vals  []Arg
}

// Tracer records spans, counters, and gauges in deterministic virtual
// time.  It is not safe for concurrent use — but the simulator runs
// exactly one virtual thread at a time, so no instrumentation site can
// race another.
type Tracer struct {
	run     int // current run number (0-based); BeginRun advances it
	nextPid int
	nextTid int

	procs  map[string]int // run-qualified host -> pid
	tracks map[string]int // run-qualified host|track -> tid
	// Registration order, for deterministic metadata emission.
	procOrder  []procRef
	trackOrder []trackRef

	events []Event

	// counters holds running totals keyed by run-qualified host|name;
	// Add emits a counter sample holding the new total.
	counters map[string]int64
	// counterOrder remembers first-touch order per run for Report.
	counterOrder []counterRef

	snapshots []Snapshot

	// reportHooks render extra Report sections from the recorded
	// events (the critical-path analyzer registers one); they run in
	// registration order after the built-in sections.
	reportHooks []func(*Tracer) string
}

type counterRef struct {
	run  int
	host string
	name string
	key  string
}

// NewTracer returns an empty tracer ready to record its first run.
func NewTracer() *Tracer {
	return &Tracer{
		procs:    make(map[string]int),
		tracks:   make(map[string]int),
		counters: make(map[string]int64),
	}
}

// Enabled reports whether events will actually be recorded; callers
// may use it to skip building expensive argument sets.
func (tr *Tracer) Enabled() bool { return tr != nil }

// BeginRun starts a new logical run: subsequent events register fresh
// process/track ids (so Perfetto shows each Sim as its own process
// group) and counters restart from zero.  The first run needs no
// BeginRun call.
func (tr *Tracer) BeginRun() {
	if tr == nil {
		return
	}
	// An untouched tracer stays on run 0: BeginRun before any event
	// must not burn an empty run group.
	if len(tr.procOrder) == 0 && len(tr.counterOrder) == 0 {
		return
	}
	tr.run++
}

// Runs reports how many runs hold recorded state (at least 1 once any
// event has been recorded).
func (tr *Tracer) Runs() int {
	if tr == nil {
		return 0
	}
	return tr.run + 1
}

// pidFor returns the Perfetto pid for host in the current run,
// registering it (and its metadata name) on first use.
func (tr *Tracer) pidFor(host string) int {
	key := fmt.Sprintf("%d|%s", tr.run, host)
	if pid, ok := tr.procs[key]; ok {
		return pid
	}
	tr.nextPid++
	pid := tr.nextPid
	tr.procs[key] = pid
	name := host
	if tr.run > 0 {
		name = fmt.Sprintf("run%d %s", tr.run, host)
	}
	tr.procOrder = append(tr.procOrder, procRef{pid: pid, name: name})
	return pid
}

// tidFor returns the Perfetto tid for (host, track) in the current
// run, registering it on first use.
func (tr *Tracer) tidFor(host, track string) (pid, tid int) {
	pid = tr.pidFor(host)
	key := fmt.Sprintf("%d|%s|%s", tr.run, host, track)
	if tid, ok := tr.tracks[key]; ok {
		return pid, tid
	}
	tr.nextTid++
	tid = tr.nextTid
	tr.tracks[key] = tid
	tr.trackOrder = append(tr.trackOrder, trackRef{pid: pid, tid: tid, name: track})
	return pid, tid
}

// Span records one complete interval [start, end] on (host, track).
// Intervals are recorded verbatim — the accounting guard tests, not
// the recorder, assert that no span ends before it starts.
func (tr *Tracer) Span(host, track, name, cat string, start, end sim.Time, args ...Arg) {
	if tr == nil {
		return
	}
	pid, tid := tr.tidFor(host, track)
	tr.events = append(tr.events, Event{
		Phase: phaseSpan, Name: name, Cat: cat,
		Pid: pid, Tid: tid, Ts: start, Dur: end - start, Args: args,
	})
}

// FlowStart records the origin of a Perfetto flow arrow on (host,
// track) at ts; the matching FlowEnd with the same id draws the arrow.
func (tr *Tracer) FlowStart(host, track, name, cat string, id int64, ts sim.Time) {
	if tr == nil {
		return
	}
	pid, tid := tr.tidFor(host, track)
	tr.events = append(tr.events, Event{
		Phase: phaseFlowStart, Name: name, Cat: cat,
		Pid: pid, Tid: tid, Ts: ts, ID: id,
	})
}

// FlowEnd records the destination of a Perfetto flow arrow (binding
// point "enclosing slice": the arrow lands on whatever span encloses
// ts on the target track).
func (tr *Tracer) FlowEnd(host, track, name, cat string, id int64, ts sim.Time) {
	if tr == nil {
		return
	}
	pid, tid := tr.tidFor(host, track)
	tr.events = append(tr.events, Event{
		Phase: phaseFlowEnd, Name: name, Cat: cat,
		Pid: pid, Tid: tid, Ts: ts, ID: id,
	})
}

// FlowArrow appends a complete flow arrow between two already
// recorded spans, addressed by their Perfetto (pid, tid) coordinates —
// the form a post-hoc analysis pass uses, since re-registering host
// names after the fact would mint fresh ids under the current run.
func (tr *Tracer) FlowArrow(name, cat string, id int64,
	fromPid, fromTid int, fromTs sim.Time,
	toPid, toTid int, toTs sim.Time) {
	if tr == nil {
		return
	}
	tr.events = append(tr.events,
		Event{Phase: phaseFlowStart, Name: name, Cat: cat,
			Pid: fromPid, Tid: fromTid, Ts: fromTs, ID: id},
		Event{Phase: phaseFlowEnd, Name: name, Cat: cat,
			Pid: toPid, Tid: toTid, Ts: toTs, ID: id})
}

// AddReportHook registers fn to render an extra Report section; the
// analyzer in obs/analyze attaches itself this way, keeping obs free
// of upward dependencies.
func (tr *Tracer) AddReportHook(fn func(*Tracer) string) {
	if tr == nil {
		return
	}
	tr.reportHooks = append(tr.reportHooks, fn)
}

// Instant records a point event on (host, track).
func (tr *Tracer) Instant(host, track, name, cat string, ts sim.Time, args ...Arg) {
	if tr == nil {
		return
	}
	pid, tid := tr.tidFor(host, track)
	tr.events = append(tr.events, Event{
		Phase: phaseInstant, Name: name, Cat: cat,
		Pid: pid, Tid: tid, Ts: ts, Args: args,
	})
}

// Add increments the named per-host counter by delta and records a
// sample of the new running total.
func (tr *Tracer) Add(host, name string, ts sim.Time, delta int64) {
	if tr == nil {
		return
	}
	tr.sample(host, name, ts, tr.counterVal(host, name)+delta)
}

// Gauge sets the named per-host counter to v and records a sample.
func (tr *Tracer) Gauge(host, name string, ts sim.Time, v int64) {
	if tr == nil {
		return
	}
	tr.sample(host, name, ts, v)
}

// Counter returns the current value of the named per-host counter.
func (tr *Tracer) Counter(host, name string) int64 {
	if tr == nil {
		return 0
	}
	return tr.counterVal(host, name)
}

func (tr *Tracer) counterKey(host, name string) string {
	return fmt.Sprintf("%d|%s|%s", tr.run, host, name)
}

func (tr *Tracer) counterVal(host, name string) int64 {
	return tr.counters[tr.counterKey(host, name)]
}

func (tr *Tracer) sample(host, name string, ts sim.Time, v int64) {
	key := tr.counterKey(host, name)
	if _, ok := tr.counters[key]; !ok {
		tr.counterOrder = append(tr.counterOrder,
			counterRef{run: tr.run, host: host, name: name, key: key})
	}
	tr.counters[key] = v
	pid := tr.pidFor(host)
	tr.events = append(tr.events, Event{
		Phase: phaseCounter, Name: name,
		Pid: pid, Ts: ts, Args: []Arg{{Key: "value", Val: v}},
	})
}

// RecordSnapshot stores one round-boundary metrics sample (for the
// Report) and mirrors each value as a gauge sample in the trace.
// vals must be in a deterministic order chosen by the caller.
func (tr *Tracer) RecordSnapshot(label, host string, ts sim.Time, vals []Arg) {
	if tr == nil {
		return
	}
	tr.snapshots = append(tr.snapshots, Snapshot{Label: label, Host: host, Ts: ts, Vals: vals})
	for _, v := range vals {
		tr.Gauge(host, v.Key, ts, v.Val)
	}
}

// Events returns the recorded events, in record order.  The slice is
// shared: callers must not mutate it.
func (tr *Tracer) Events() []Event {
	if tr == nil {
		return nil
	}
	return tr.events
}

// ProcName resolves a Perfetto pid back to its registered process
// (host) name, "" if unknown.
func (tr *Tracer) ProcName(pid int) string {
	if tr == nil {
		return ""
	}
	for _, p := range tr.procOrder {
		if p.pid == pid {
			return p.name
		}
	}
	return ""
}

// TrackName resolves a Perfetto (pid, tid) back to its registered
// track name, "" if unknown.
func (tr *Tracer) TrackName(pid, tid int) string {
	if tr == nil {
		return ""
	}
	for _, t := range tr.trackOrder {
		if t.pid == pid && t.tid == tid {
			return t.name
		}
	}
	return ""
}
