// Package supervise decouples per-link frame ingestion from scoring.
//
// Each link gets a Supervisor: a producer goroutine pulls frames from the
// link's source into a bounded single-producer/single-consumer ring, and
// the scoring shard consumes the ring non-blockingly (Next returns
// ErrNoFrame instead of waiting). One stalled, slow, or dead source can
// therefore never stall the other links sharing its shard — the failure is
// contained to the one link, which the fusion layer then discounts or
// excludes.
//
// A consumer with nothing left to pop need not poll. It arms the
// supervisor's bell with the number of frames it still needs (Arm), then
// parks on whatever the bell signals — the engine installs a non-blocking
// send to the parked shard's wake channel (SetBell, before Start). The
// producer rings once, right after the push that buffers the requested
// count, or when the link ends. Arm stores the target before it reads the
// ring tail and the producer stores the tail before it reads the target,
// so one of the two always sees the other: Arm reports the frames as
// already there, or the producer rings. A CAS on the target makes it one
// ring per arm. Next itself still never blocks.
//
// The supervisor also owns the link lifecycle state machine
//
//	Live → Stale → Down → Recovering → Live
//
// with heartbeat-based staleness detection (StaleAfter/DownAfter age
// bounds on the source's last activity), jittered exponential backoff
// redials for sources implementing Reconnector, and a HoldLiveFrames
// hysteresis so a flapping link must re-prove itself before re-entering
// fusion. Lifecycle states map into adapt.Health.Lifecycle, which
// adapt.Health.Weight folds into the link's fusion vote: Stale decays the
// vote, Down/Recovering collapse it below the fusible floor.
//
// Everything on the steady-state path — ring push/pop, Next, Lifecycle,
// Status — is allocation-free; allocations happen only at Start and on the
// reconnect path.
package supervise
