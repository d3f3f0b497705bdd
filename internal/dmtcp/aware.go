package dmtcp

import "repro/internal/kernel"

// AwareAPI is the dmtcpaware programming interface (§3.1): an
// optional library letting an application test whether it runs under
// DMTCP, request checkpoints, delay checkpoints across critical
// sections, query status, and register hook functions around
// checkpoint and restart.
type AwareAPI struct {
	m *Manager
}

// Aware returns the dmtcpaware handle for the calling process, or nil
// when the process does not run under DMTCP — so unmodified programs
// can link the calls and behave normally outside DMTCP, as the paper
// describes.
func Aware(p *kernel.Process) *AwareAPI {
	if m, ok := p.Hooks().(*Manager); ok {
		return &AwareAPI{m: m}
	}
	return nil
}

// IsEnabled reports whether the process is checkpointable.
func (a *AwareAPI) IsEnabled() bool { return a != nil && a.m != nil }

// VirtPid returns the process's virtual pid.
func (a *AwareAPI) VirtPid() kernel.Pid { return a.m.virtPid }

// IsRestart reports whether this incarnation was restored from a
// checkpoint image.
func (a *AwareAPI) IsRestart() bool { return a.m.restored }

// RequestCheckpoint asks the coordinator for a cluster-wide
// checkpoint and returns once it completes.
func (a *AwareAPI) RequestCheckpoint(t *kernel.Task) error {
	_, err := a.m.sys.Checkpoint(t)
	return err
}

// DelayCheckpointsBegin enters a critical section during which
// checkpoints are deferred.
func (a *AwareAPI) DelayCheckpointsBegin(t *kernel.Task) { t.BeginCritical() }

// DelayCheckpointsEnd leaves the critical section.
func (a *AwareAPI) DelayCheckpointsEnd(t *kernel.Task) { t.EndCritical() }

// Status queries the coordinator for (registered processes, completed
// checkpoint rounds).
func (a *AwareAPI) Status(t *kernel.Task) (clients, rounds int, err error) {
	return a.m.sys.coordStatus(t)
}

// OnPreCheckpoint registers fn to run (in the checkpoint manager
// thread) just before the process is suspended.
func (a *AwareAPI) OnPreCheckpoint(fn func(*kernel.Task)) {
	a.m.aware.preCkpt = append(a.m.aware.preCkpt, fn)
}

// OnPostCheckpoint registers fn to run after the process resumes.
func (a *AwareAPI) OnPostCheckpoint(fn func(*kernel.Task)) {
	a.m.aware.postCkpt = append(a.m.aware.postCkpt, fn)
}

// OnRestart registers fn to run when the process is restored from a
// checkpoint, before its threads resume.
func (a *AwareAPI) OnRestart(fn func(*kernel.Task)) {
	a.m.aware.postRestart = append(a.m.aware.postRestart, fn)
}
