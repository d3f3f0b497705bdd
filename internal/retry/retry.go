// Package retry is the unified failure policy for every reconnect and
// re-send loop in the stack.  Before it existed each site hand-rolled
// its own capped-exponential backoff (manager redial, restart
// program dial, journal ship retry), all fully deterministic — so a
// healed partition woke every stalled client on the same virtual
// nanosecond and they stampeded the coordinator in lockstep.  A Policy
// derives from model.Params, and every delay it deals is jittered by
// ±Params.RetryJitterPct from the seeded engine RNG: reproducible per
// seed, desynchronized within a run.
package retry

import (
	"math/rand"
	"time"

	"repro/internal/model"
)

// Policy is a deadline/retry/backoff schedule: delays start at Base,
// double up to Cap, and the caller gives up once Deadline of virtual
// time has elapsed (tracked by the caller against its own clock).
type Policy struct {
	Base     time.Duration
	Cap      time.Duration
	Deadline time.Duration
	// JitterPct perturbs each dealt delay by ±JitterPct (uniform).
	JitterPct float64
}

// CoordRetry is the manager-side coordinator redial policy: it must
// ride out failure detection plus election plus resync.
func CoordRetry(p *model.Params) Policy {
	return Policy{
		Base:      p.CoordRetryBase,
		Cap:       p.CoordRetryCap,
		Deadline:  p.CoordRetryWindow,
		JitterPct: p.RetryJitterPct,
	}
}

// RestartDial is the restart program's coordinator dial policy: the
// redial window widened by detection and election time, since a
// restart may begin while a takeover is still settling.
func RestartDial(p *model.Params) Policy {
	pol := CoordRetry(p)
	pol.Deadline = p.FailureDetectDelay + p.ElectionTimeout + p.CoordRetryWindow
	return pol
}

// JournalShip is the leader's journal-push retry policy toward an
// unreachable standby: flat delay (no exponential growth — the push
// loop doubles as the leader heartbeat, so backing off further would
// slow failure detection), no deadline (the shipper retries as long
// as it leads).
func JournalShip(p *model.Params) Policy {
	return Policy{
		Base:      p.JournalRetryDelay,
		Cap:       p.JournalRetryDelay,
		JitterPct: p.RetryJitterPct,
	}
}

// Backoff deals the policy's delay sequence.  Not safe for sharing
// across tasks; make one per retry loop.
type Backoff struct {
	pol  Policy
	rng  *rand.Rand
	next time.Duration
}

// Backoff starts a delay sequence using the given seeded RNG (the
// engine's, so runs stay reproducible per seed).
func (p Policy) Backoff(rng *rand.Rand) *Backoff {
	return &Backoff{pol: p, rng: rng, next: p.Base}
}

// Next returns the next delay to sleep: the current backoff step,
// jittered.  The undealt step then doubles, capped at Cap.
func (b *Backoff) Next() time.Duration {
	d := b.next
	b.next *= 2
	if b.pol.Cap > 0 && b.next > b.pol.Cap {
		b.next = b.pol.Cap
	}
	if j := b.pol.JitterPct; j > 0 && b.rng != nil && d > 0 {
		d = time.Duration(float64(d) * (1 + j*(2*b.rng.Float64()-1)))
	}
	return d
}
