package runtime

import (
	"errors"
	"fmt"

	"csaw/internal/plan"
)

// Sentinel errors reported by the runtime.
var (
	// ErrNotSchedulable is returned by Invoke when the junction's guard is
	// not (definitely) true.
	ErrNotSchedulable = errors.New("runtime: junction guard not satisfied")
	// ErrAlreadyStarted is returned by start ι on a running instance.
	ErrAlreadyStarted = errors.New("runtime: instance already started")
	// ErrNotRunning is returned by stop ι on a stopped instance.
	ErrNotRunning = errors.New("runtime: instance not running")
	// ErrVerifyFailed is returned when a verify formula is false.
	ErrVerifyFailed = errors.New("runtime: verify failed")
	// ErrVerifyUnknown is returned when a verify formula needs the state of
	// a junction that is not running (ternary logic, paper §6).
	ErrVerifyUnknown = errors.New("runtime: verify needs state of a junction that is not running")
	// ErrTimeout is returned when an otherwise[t] deadline expires or the
	// caller's context ends. Where that stopped a sequence between
	// statements, the context's error is wrapped too, so errors.Is also
	// finds context.DeadlineExceeded or context.Canceled.
	ErrTimeout = errors.New("runtime: timed out")
	// ErrRetryExhausted is returned when retry exceeds the junction's bound.
	ErrRetryExhausted = errors.New("runtime: retry limit exhausted")
	// ErrReconsiderFailed is returned when reconsider finds no different
	// match (paper §6: "otherwise the expression fails").
	ErrReconsiderFailed = plan.ErrReconsiderFailed
	// ErrIdxUndef is returned when resolving an idx variable that was never
	// assigned.
	ErrIdxUndef = errors.New("runtime: idx is undef")
	// ErrWriteDenied is returned when a host block writes a name outside
	// its declared write-set V⃗.
	ErrWriteDenied = errors.New("runtime: host write outside declared write-set")
	// ErrSendFailed wraps communication failures of assert/retract/write.
	ErrSendFailed = errors.New("runtime: remote update failed")
)

// ErrMigrated marks a retired junction incarnation: the instance was
// migrated to another location and this object's state now lives in the
// replacement. Invoke/InvokeWhenReady absorb it by re-resolving; only code
// holding a stale *Junction across a migration can observe it.
var ErrMigrated = errors.New("runtime: junction migrated")

// ErrPeerDown is the ErrSendFailed case where the substrate already knows
// the destination is down (a crashed endpoint, or a proxy crashed by its
// uplink's compart.ReconnectClient.Notify when the connection died or its
// heartbeats went unanswered).
// Updates fail fast with it instead of burning the full ack timeout.
// errors.Is(err, ErrSendFailed) still holds.
var ErrPeerDown = fmt.Errorf("%w: peer endpoint down", ErrSendFailed)
