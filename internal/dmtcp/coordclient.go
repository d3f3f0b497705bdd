package dmtcp

import (
	"fmt"
	"time"

	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/retry"
)

// The coordinator client: one dial (kernel.Task.DialProtected), one
// redial loop, one barrier wait and one request call for every process.

// CoordLostError reports that a coordinator redial exhausted its
// backoff window with no leader answering: coordinator HA is enabled
// but no live standby took over.
type CoordLostError struct {
	// Addr is the last coordinator address tried.
	Addr kernel.Addr
	// Attempts is how many dials were attempted.
	Attempts int
	// Err is the last dial error.
	Err error
}

func (e *CoordLostError) Error() string {
	return fmt.Sprintf("dmtcp: coordinator at %s:%d unreachable after %d attempts: %v",
		e.Addr.Host, e.Addr.Port, e.Attempts, e.Err)
}

func (e *CoordLostError) Unwrap() error { return e.Err }

// redialCoord dials the (possibly just promoted) coordinator, and
// sends hello if non-nil, until that works or pol's deadline would
// pass (*CoordLostError).  The backoff is jittered so clients orphaned
// by one takeover do not stampede the new leader in lockstep.
func (s *System) redialCoord(t *kernel.Task, pol retry.Policy, hello []byte) (int, kernel.Addr, error) {
	bo := pol.Backoff(s.C.Eng.Rand())
	deadline := t.Now().Add(pol.Deadline)
	for attempts := 1; ; attempts++ {
		if t.P.Dead || t.P.Zombie {
			return -1, kernel.Addr{}, fmt.Errorf("dmtcp: process died while reconnecting")
		}
		addr := s.coordAddr()
		fd, err := t.DialProtected(addr)
		if err == nil && hello != nil {
			if err = t.SendFrame(fd, hello); err != nil {
				t.Close(fd)
			}
		}
		if err == nil {
			return fd, addr, nil
		}
		delay := bo.Next()
		if t.Now().Add(delay) > deadline {
			return -1, addr, &CoordLostError{Addr: addr, Attempts: attempts, Err: err}
		}
		t.Idle(delay)
	}
}

// awaitLeader blocks the caller until a live coordinator leads or
// pol's deadline passes — the driver's wait for a standby takeover —
// and reports whether one leads.
func (s *System) awaitLeader(t *kernel.Task, pol retry.Policy) bool {
	deadline := t.Now().Add(pol.Deadline)
	for s.Coord.Node.Down && t.Now() < deadline {
		s.doneW.WaitTimeout(t.T, 20*time.Millisecond)
	}
	return !s.Coord.Node.Down
}

// coordCall sends one request on a fresh connection and returns the
// coordinator's reply.
func (s *System) coordCall(t *kernel.Task, req []byte) ([]byte, error) {
	fd, err := t.DialProtected(s.coordAddr())
	if err != nil {
		return nil, err
	}
	defer t.Close(fd)
	if err := t.SendFrame(fd, req); err != nil {
		return nil, err
	}
	return t.RecvFrame(fd)
}

// coordStatus queries the coordinator for (registered processes,
// completed checkpoint rounds).
func (s *System) coordStatus(t *kernel.Task) (clients, rounds int, err error) {
	frame, err := s.coordCall(t, []byte{msgStatus})
	if err != nil {
		return 0, 0, err
	}
	d := &bin.Decoder{B: frame[1:]}
	return d.Int(), d.Int(), d.Err
}

// connectCoordinator registers a starting or restored manager under
// its stable identity.  A restored manager can land in a takeover
// interregnum (the leader died mid-restart): with HA it waits out the
// election through coordLost, whose resync registers unknown
// identities too.
func (m *Manager) connectCoordinator(t *kernel.Task) {
	m.desc = fmt.Sprintf("%s/%s[%d]", m.p.Node.Hostname, m.p.ProgName, m.virtPid)
	addr := m.sys.coordAddr()
	fd, err := t.DialProtected(addr)
	if err != nil {
		if m.coordLost(t) == nil {
			return
		}
		panic(fmt.Sprintf("dmtcp: cannot reach coordinator at %v: %v", addr, err))
	}
	var e bin.Encoder
	e.B = append(e.B, msgRegister)
	e.Str(m.desc)
	if err := t.SendFrame(fd, e.B); err != nil {
		panic(fmt.Sprintf("dmtcp: register: %v", err))
	}
	m.coordFD, m.coordTo = fd, addr
}

// coordLost re-binds a manager whose coordinator connection died.
// Without standbys (or in a dying process) the session is over; with
// HA it redials until the promoted standby answers and resyncs this
// manager's identity and barrier progress.
func (m *Manager) coordLost(t *kernel.Task) error {
	if m.p.Dead || m.p.Zombie || !m.sys.haEnabled() {
		return fmt.Errorf("dmtcp: coordinator connection lost")
	}
	if m.coordFD >= 0 {
		// Drop the dead connection's descriptor before dialing anew;
		// otherwise every takeover leaks one protected fd per manager.
		t.Close(m.coordFD)
		m.coordFD = -1
	}
	var e bin.Encoder
	e.B = append(e.B, msgResync)
	e.Str(m.desc)
	e.I64(m.curTag)
	e.Int(m.curPassed)
	fd, addr, err := m.sys.redialCoord(t, retry.CoordRetry(m.sys.C.Params), e.B)
	if err != nil {
		return err
	}
	m.coordFD, m.coordTo = fd, addr
	return nil
}

// awaitRelease sends the arrival frames for the named barrier and
// blocks until its release, re-sending after a takeover (arrivals are
// idempotent).  A round's begin-checkpoint request arriving meanwhile
// is stashed for the manager loop: dropping it would wedge that round.
func (m *Manager) awaitRelease(t *kernel.Task, name string, arrival ...[]byte) error {
	for {
		var err error
		for _, frame := range arrival {
			if err = t.SendFrame(m.coordFD, frame); err != nil {
				break
			}
		}
		for err == nil {
			var frame []byte
			frame, err = t.RecvFrame(m.coordFD)
			switch {
			case err != nil || len(frame) == 0:
			case frame[0] == msgRelease:
				if d := (&bin.Decoder{B: frame[1:]}); d.Str() == name {
					return nil
				}
			case frame[0] == msgDoCkpt:
				m.pendingCkpt = append([]byte(nil), frame...)
			}
		}
		if err := m.coordLost(t); err != nil {
			return err
		}
	}
}
