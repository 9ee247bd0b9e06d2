package runner

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"time"
)

// maxRetryBackoff caps the exponential retry delay so a long retry ladder
// cannot stall a worker for minutes.
const maxRetryBackoff = 5 * time.Second

// PanicError is the error a recovered trial panic is converted into. A
// panicking trial kills only itself, never the campaign: the worker records
// the panic (with its stack, for the manifest) and moves on when
// Options.ContinueOnError is set.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

func (p *PanicError) Error() string { return fmt.Sprintf("trial panicked: %v", p.Value) }

// PoisonedError is the error a trial resolves to when a peer worker (or a
// previous run) quarantined it: the trial either crash-looped through its
// cross-worker lease attempts or failed permanently elsewhere, and the
// poison marker in the lease directory tells every other worker to fail it
// fast into the manifest instead of feeding it more processes.
type PoisonedError struct {
	// Key is the trial's cache key.
	Key string
	// SpecHash identifies the spec across schema bumps ("" when the
	// quarantining worker could not record it — e.g. a crash-loop poison).
	SpecHash string
	// Attempts is how many executions the trial consumed before quarantine.
	Attempts int
	// Cause is the recorded reason.
	Cause string
}

func (e *PoisonedError) Error() string {
	return fmt.Sprintf("trial %s quarantined after %d attempts: %s", shortKey(e.Key), e.Attempts, e.Cause)
}

// TrialFailure is one entry of a campaign's failure manifest: a trial that
// exhausted its attempts without producing a result. The campaign's healthy
// trials are unaffected; the failed trial's slot in the results slice keeps
// the zero value of R.
type TrialFailure struct {
	// Index is the trial's position in the spec grid.
	Index int `json:"index"`
	// Key is the trial's cache key ("" when the campaign runs uncached).
	Key string `json:"key,omitempty"`
	// Err is the final attempt's error text.
	Err string `json:"err"`
	// Panicked marks failures caused by a recovered panic.
	Panicked bool `json:"panicked,omitempty"`
	// TimedOut marks failures caused by the per-trial timeout.
	TimedOut bool `json:"timedOut,omitempty"`
	// Attempts is how many times the trial executed (1 + retries taken).
	Attempts int `json:"attempts"`
	// Schema is the cache schema version the campaign ran under ("" when
	// uncached). With SpecHash it makes the manifest replayable after a
	// schema bump: the failed spec is identified by content, and the schema
	// records which trial semantics produced the failure.
	Schema string `json:"schema,omitempty"`
	// SpecHash is the schema-independent content hash of the trial's spec
	// (see SpecHash).
	SpecHash string `json:"specHash,omitempty"`
	// Quarantined marks failures resolved from a poison marker: the trial
	// was not executed by this worker, it inherited a peer's verdict that
	// the trial is unrunnable (see PoisonedError).
	Quarantined bool `json:"quarantined,omitempty"`
}

// DefaultTransient is the retry classifier used when Options.Transient is
// nil: panics, per-trial timeouts, and cancellations are permanent (a
// deterministic trial that panicked once will panic again); everything else
// is assumed transient (I/O hiccups, resource exhaustion).
func DefaultTransient(err error) bool {
	var pe *PanicError
	if errors.As(err, &pe) {
		return false
	}
	return !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled)
}

// infraError marks campaign-infrastructure failures (cache writes, spec
// marshaling) that must abort the run even under ContinueOnError: losing the
// cache silently would defeat resumability.
type infraError struct{ err error }

func (e *infraError) Error() string { return e.err.Error() }
func (e *infraError) Unwrap() error { return e.err }

// execOnce runs one attempt of a trial with panic recovery and, when
// timeout > 0, a per-attempt deadline on the context handed to exec. The
// deadline only works if exec observes its context (the gurita facade polls
// it through sim.Config.Interrupt); a non-cooperative exec runs to
// completion and its result is kept.
func execOnce[S, R any](ctx context.Context, spec S, exec func(context.Context, S) (R, error), timeout time.Duration) (res R, err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	return exec(ctx, spec)
}

// retryJitter derates a backoff delay deterministically: the factor is in
// [0.5, 1.0), keyed by the trial's spec hash and the attempt number, so
// concurrent workers retrying *different* trials desynchronize (no
// thundering herd against a shared resource) while a rerun of the same
// campaign backs off identically — seeded jitter, not sampled jitter.
func retryJitter(specHash string, attempt int) float64 {
	h := fnv.New64a()
	h.Write([]byte(specHash))
	h.Write([]byte{byte(attempt), byte(attempt >> 8)})
	// Top 53 bits → uniform in [0, 1), halved into [0.5, 1.0).
	return 0.5 + float64(float64(h.Sum64()>>11)/float64(1<<53)*0.5)
}

// attemptTrial runs a trial through the retry ladder: up to 1+Options.Retries
// attempts, retrying only errors the Transient classifier accepts, with
// exponential backoff between attempts, jittered deterministically by the
// trial's spec hash. Returns the last attempt's outcome and the number of
// attempts made.
func attemptTrial[S, R any](ctx context.Context, spec S, specHash string, exec func(context.Context, S) (R, error), opts Options) (res R, attempts int, err error) {
	transient := opts.Transient
	if transient == nil {
		transient = DefaultTransient
	}
	for attempt := 0; ; attempt++ {
		res, err = execOnce(ctx, spec, exec, opts.TrialTimeout)
		attempts = attempt + 1
		if err == nil || attempt >= opts.Retries || !transient(err) || ctx.Err() != nil {
			return res, attempts, err
		}
		backoff := opts.RetryBackoff
		if backoff <= 0 {
			backoff = 100 * time.Millisecond
		}
		delay := backoff << uint(attempt)
		if delay > maxRetryBackoff || delay <= 0 {
			delay = maxRetryBackoff
		}
		delay = time.Duration(float64(delay) * retryJitter(specHash, attempt))
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return res, attempts, err
		}
	}
}

// failureFor builds the manifest entry for a trial that exhausted its
// attempts.
func failureFor(index int, key, schema, specHash string, attempts int, err error) TrialFailure {
	var pe *PanicError
	f := TrialFailure{
		Index:    index,
		Key:      key,
		Err:      err.Error(),
		Panicked: errors.As(err, &pe),
		TimedOut: errors.Is(err, context.DeadlineExceeded),
		Attempts: attempts,
		Schema:   schema,
		SpecHash: specHash,
	}
	var qe *PoisonedError
	if errors.As(err, &qe) {
		f.Quarantined = true
		if f.Attempts == 0 {
			f.Attempts = qe.Attempts
		}
		if f.SpecHash == "" {
			f.SpecHash = qe.SpecHash
		}
	}
	return f
}
