// Package lease coordinates trial execution across worker *processes* that
// share nothing but a directory: crash-safe lease files make "who is
// executing this trial" a property of the filesystem, so a SIGKILLed worker
// loses its claims instead of taking them to the grave.
//
// The protocol is deliberately primitive — no daemon, no network, no clock
// service — because the campaign layer above it is idempotent: every trial
// is a pure function of its spec, results are published by atomic rename
// into a content-addressed cache, and two workers that accidentally execute
// the same trial publish byte-identical files. Leases therefore only have to
// make duplicate execution *rare*, never impossible; correctness (exactly
// once result bytes) comes from content addressing, efficiency comes from
// the lease. See DESIGN.md §15 for the full argument.
//
// One lease is one file, <dir>/<key>.lease, created with O_CREATE|O_EXCL so
// the filesystem arbitrates the initial race, written with the owner id and
// schema stamp, fsynced, and heartbeated by atomically rewriting the record
// with a bumped monotonic sequence number. Liveness is judged logically, not
// by mtime: an observer records the (owner, seq) pair it sees and presumes
// the holder dead only after watching that pair stay unchanged for a full
// TTL of its own clock — so filesystems with lazy, cached, or coarse
// timestamps cannot make a live worker look dead (or a dead one look live).
// The file's mtime survives only as a fallback hint for records that carry
// no sequence number (pre-seq lease files, foreign schemas, torn writes) and
// for Sweep's post-campaign cleanup. A stale lease may be reclaimed by any
// peer: the reclaimer writes its own record to a temp file and atomically
// renames it over the lease, then reads the file back — rename arbitrates,
// read-back decides. A reclaim increments the lease's attempt counter; when
// a trial has been reclaimed MaxAttempts times (a worker crash loop — the
// trial is killing its executors), it is quarantined instead: a
// <key>.poison marker records the attempts so every peer fails the trial
// fast into its degradation manifest rather than feeding it more workers.
package lease

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counters is the observability hook: obs.SyncRegistry satisfies it. Nil is
// a valid no-op.
type Counters interface {
	Add(name string, delta int64)
}

// Config parameterizes a Manager.
type Config struct {
	// Dir is the lease directory, usually <cache>/leases. Created if absent.
	Dir string
	// Owner is this process's identity, stamped into every lease it takes.
	// It must be unique across live workers sharing Dir (host-pid works).
	Owner string
	// Schema stamps lease and poison files; records under a different schema
	// are stale by definition (the trials they guarded are from another
	// world) and are reclaimed freely.
	Schema string
	// TTL is the staleness threshold: a lease whose (owner, seq) pair has
	// been observed unchanged for longer than TTL may be reclaimed by any
	// peer. Default 5s.
	TTL time.Duration
	// Heartbeat is the renewal period; it must be well under TTL or a busy
	// worker looks dead. Default TTL/3.
	Heartbeat time.Duration
	// MaxAttempts bounds how many times a trial may be claimed across all
	// workers before it is poisoned (quarantined). 0 means the default, 5.
	MaxAttempts int
	// Counters, when non-nil, receives the lease.* operational counters.
	Counters Counters
}

// Default timing constants. TTL trades reclaim latency against false
// takeovers under scheduler stalls; both are safe (duplicates publish
// identical bytes), so the default leans toward fast recovery.
const (
	DefaultTTL         = 5 * time.Second
	DefaultMaxAttempts = 5
)

// State classifies the outcome of a Claim.
type State int

const (
	// StateAcquired: the caller owns the lease and must execute the trial,
	// then Release (or Poison) it.
	StateAcquired State = iota
	// StateBusy: a live peer holds the lease; wait for its result (the
	// cache) or for the lease to go stale, then Claim again.
	StateBusy
	// StatePoisoned: the trial is quarantined; fail it fast into the
	// degradation manifest instead of executing.
	StatePoisoned
)

// record is the on-disk lease file. Seq is the logical heartbeat: the
// holder bumps it on every renewal, so liveness is visible in the record's
// content, never its mtime. A record with Seq zero predates sequence
// heartbeats (or was written by a foreign world) and is judged by the mtime
// fallback instead.
type record struct {
	Schema  string `json:"schema"`
	Key     string `json:"key"`
	Owner   string `json:"owner"`
	Attempt int    `json:"attempt"`
	Seq     uint64 `json:"seq,omitempty"`
}

// seqIncarnation spaces out the starting sequence number of every claim this
// process takes, so a release-then-reclaim of the same key by the same owner
// can never present an (owner, seq) pair a peer has already observed — that
// would make a live second incarnation look TTL-stale. Renewals bump by one;
// 2^32 renewals per claim is unreachable.
var seqIncarnation atomic.Uint64

func newSeq() uint64 { return seqIncarnation.Add(1) << 32 }

// ErrLost reports that a renewal or release found the lease taken over by a
// peer (this process was presumed dead). The trial may keep executing — its
// eventual publish is byte-identical to the usurper's — but the lease is no
// longer ours to extend.
var ErrLost = errors.New("lease: lease lost to a peer")

// Poison is the on-disk quarantine marker for a trial that exhausted its
// cross-worker attempts.
type Poison struct {
	Schema   string `json:"schema"`
	Key      string `json:"key"`
	SpecHash string `json:"specHash,omitempty"`
	Attempts int    `json:"attempts"`
	Err      string `json:"err"`
}

// Stats is a snapshot of the manager's lifetime counters.
type Stats struct {
	Acquired  int64 // leases taken via the O_EXCL fast path
	Reclaimed int64 // stale leases taken over from (presumed) dead peers
	Lost      int64 // our leases discovered taken over by a peer
	Released  int64 // leases released after a successful publish
	Poisoned  int64 // trials this manager quarantined
}

// observation is one remembered sighting of a peer's lease: the (owner, seq)
// pair and when this manager first saw it. Staleness is the pair surviving
// unchanged past the TTL on the observer's own clock.
type observation struct {
	owner string
	seq   uint64
	since time.Time
}

// Manager coordinates one process's leases under one directory. Safe for
// concurrent use by the worker pool.
type Manager struct {
	cfg Config

	// clock overrides the wall clock in tests; nil means time.Now.
	clock func() time.Time

	// obs tracks busy peers' (owner, seq) sightings per key, the basis of
	// the mtime-free staleness judgment.
	obsMu sync.Mutex
	obs   map[string]observation

	acquired  atomic.Int64
	reclaimed atomic.Int64
	lost      atomic.Int64
	released  atomic.Int64
	poisoned  atomic.Int64
}

// Open validates cfg, creates the lease directory, and returns a Manager.
func Open(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, errors.New("lease: Config.Dir must not be empty")
	}
	if cfg.Owner == "" {
		return nil, errors.New("lease: Config.Owner must not be empty")
	}
	if strings.ContainsAny(cfg.Owner, "/\x00") {
		return nil, fmt.Errorf("lease: owner %q must be filename-safe", cfg.Owner)
	}
	if cfg.Schema == "" {
		return nil, errors.New("lease: Config.Schema must not be empty")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = cfg.TTL / 3
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lease: creating lease dir: %w", err)
	}
	return &Manager{cfg: cfg, obs: make(map[string]observation)}, nil
}

// Owner returns the manager's configured owner id.
func (m *Manager) Owner() string { return m.cfg.Owner }

// TTL returns the staleness threshold in effect.
func (m *Manager) TTL() time.Duration { return m.cfg.TTL }

// Heartbeat returns the renewal period in effect.
func (m *Manager) Heartbeat() time.Duration { return m.cfg.Heartbeat }

// Stats snapshots the lifetime counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Acquired:  m.acquired.Load(),
		Reclaimed: m.reclaimed.Load(),
		Lost:      m.lost.Load(),
		Released:  m.released.Load(),
		Poisoned:  m.poisoned.Load(),
	}
}

// now is the lease clock. Leases coordinate processes, not simulations:
// heartbeat and staleness are operational wall-clock concerns that no trial
// result ever reads, which is the justification for every wall-clock use in
// this package.
//
//lint:ignore nondetsource lease heartbeat/staleness is wall-clock coordination between worker processes; trial results never depend on it
func (m *Manager) now() time.Time {
	if m.clock != nil {
		return m.clock()
	}
	//lint:ignore nondetsource lease expiry is wall-clock coordination between processes; trial results never depend on it
	return time.Now()
}

// observe records (or refreshes) the sighting of (owner, seq) on key and
// returns how long this manager has watched that exact pair. A changed pair
// restarts the watch: the holder renewed, so it is alive.
func (m *Manager) observe(key, owner string, seq uint64, now time.Time) time.Duration {
	m.obsMu.Lock()
	defer m.obsMu.Unlock()
	o, ok := m.obs[key]
	if !ok || o.owner != owner || o.seq != seq {
		m.obs[key] = observation{owner: owner, seq: seq, since: now}
		return 0
	}
	return now.Sub(o.since)
}

// forgetObs drops the sighting for key: the lease was acquired, released,
// vanished, or poisoned, so any remembered (owner, seq) pair is moot.
func (m *Manager) forgetObs(key string) {
	m.obsMu.Lock()
	delete(m.obs, key)
	m.obsMu.Unlock()
}

func (m *Manager) add(name string, d int64) {
	if m.cfg.Counters != nil {
		m.cfg.Counters.Add(name, d)
	}
}

func (m *Manager) leasePath(key string) string {
	return filepath.Join(m.cfg.Dir, key+".lease")
}

func (m *Manager) poisonPath(key string) string {
	return filepath.Join(m.cfg.Dir, key+".poison")
}

// Claim attempts to take the lease for key. The returned Claim's State says
// what happened; only StateAcquired claims may execute (and must end in
// Release or Poison). Claim never blocks on peers — StateBusy is a hint to
// wait and retry, with Remaining estimating how long until the current
// lease could go stale.
func (m *Manager) Claim(key string) (*Claim, error) {
	if p, ok, err := m.readPoison(key); err != nil {
		return nil, err
	} else if ok {
		return &Claim{m: m, Key: key, State: StatePoisoned, Poison: p}, nil
	}

	path := m.leasePath(key)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err == nil {
		// We created the file: the filesystem arbitrated the initial race in
		// our favor. Fill it in and fsync so a crash cannot leave a lease
		// that lies about its owner for longer than one TTL.
		rec := record{Schema: m.cfg.Schema, Key: key, Owner: m.cfg.Owner, Attempt: 1, Seq: newSeq()}
		if werr := writeRecord(f, rec); werr != nil {
			f.Close()
			os.Remove(path)
			return nil, fmt.Errorf("lease: writing %s: %w", filepath.Base(path), werr)
		}
		if werr := f.Close(); werr != nil {
			os.Remove(path)
			return nil, fmt.Errorf("lease: closing %s: %w", filepath.Base(path), werr)
		}
		m.forgetObs(key)
		m.acquired.Add(1)
		m.add("lease.acquired", 1)
		return &Claim{m: m, Key: key, State: StateAcquired, Attempt: 1}, nil
	}
	if !errors.Is(err, fs.ErrExist) {
		return nil, fmt.Errorf("lease: creating %s: %w", filepath.Base(path), err)
	}

	// Somebody holds (or held) the lease. Records that carry a sequence
	// number are judged by logical observation — stale only once this
	// manager has watched the same (owner, seq) pair for a full TTL, so the
	// filesystem's timestamps are never trusted for liveness. Records
	// without one (pre-seq lease files, foreign schemas, torn writes) have
	// no heartbeat to observe; for those the mtime fallback hint decides.
	rec, mtime, ok := m.readLease(key)
	if mtime.IsZero() {
		// Vanished between EEXIST and stat: the holder just released it.
		// Report busy-with-zero-remaining so the caller re-claims promptly
		// (by then the cache usually answers first).
		m.forgetObs(key)
		return &Claim{m: m, Key: key, State: StateBusy}, nil
	}
	now := m.now()
	var (
		stale     bool
		remaining time.Duration
		holder    string
	)
	attempt := 2
	if ok && rec.Schema == m.cfg.Schema && rec.Seq != 0 {
		holder = rec.Owner
		attempt = rec.Attempt + 1
		watched := m.observe(key, rec.Owner, rec.Seq, now)
		stale = watched > m.cfg.TTL
		remaining = m.cfg.TTL - watched
	} else {
		age := now.Sub(mtime)
		stale = age > m.cfg.TTL
		remaining = m.cfg.TTL - age
		if ok {
			holder = rec.Owner
			if rec.Schema == m.cfg.Schema {
				attempt = rec.Attempt + 1
			}
		}
	}
	if !stale {
		return &Claim{m: m, Key: key, State: StateBusy, Holder: holder, Remaining: remaining}, nil
	}

	// Stale: reclaim, or poison when the trial has burned through its
	// attempt budget. An unreadable lease counts as one unknown attempt.
	if m.cfg.MaxAttempts > 0 && attempt > m.cfg.MaxAttempts {
		p := &Poison{
			Schema:   m.cfg.Schema,
			Key:      key,
			Attempts: attempt - 1,
			Err:      fmt.Sprintf("lease: trial reclaimed %d times without completing (worker crash loop)", attempt-1),
		}
		if perr := m.writePoison(key, p); perr != nil {
			return nil, perr
		}
		os.Remove(path) // best-effort; Sweep collects stragglers
		m.forgetObs(key)
		m.poisoned.Add(1)
		m.add("lease.poisoned", 1)
		return &Claim{m: m, Key: key, State: StatePoisoned, Poison: p}, nil
	}
	newRec := record{Schema: m.cfg.Schema, Key: key, Owner: m.cfg.Owner, Attempt: attempt, Seq: newSeq()}
	if err := m.writeLease(key, newRec); err != nil {
		return nil, err
	}
	// Rename arbitrated among concurrent reclaimers; read-back decides which
	// of us actually won. (Two reclaimers can both momentarily believe they
	// won if their rename/read-back windows interleave; the duplicate
	// execution that follows publishes identical bytes, and heartbeat
	// verification converges ownership. See DESIGN.md §15.)
	back, _, bok := m.readLease(key)
	m.forgetObs(key)
	if !bok || back.Owner != m.cfg.Owner {
		c := &Claim{m: m, Key: key, State: StateBusy, Remaining: m.cfg.TTL}
		if bok {
			c.Holder = back.Owner
		}
		return c, nil
	}
	m.reclaimed.Add(1)
	m.add("lease.reclaimed", 1)
	return &Claim{m: m, Key: key, State: StateAcquired, Attempt: attempt, Reclaimed: true}, nil
}

// readLease parses the lease file for key. ok reports a well-formed record;
// mtime is zero only when the file does not exist (or cannot be stat'ed).
func (m *Manager) readLease(key string) (rec record, mtime time.Time, ok bool) {
	path := m.leasePath(key)
	st, err := os.Stat(path)
	if err != nil {
		return record{}, time.Time{}, false
	}
	mtime = st.ModTime()
	data, err := os.ReadFile(path)
	if err != nil {
		return record{}, mtime, false
	}
	if err := json.Unmarshal(data, &rec); err != nil || rec.Key != key {
		return record{}, mtime, false
	}
	return rec, mtime, true
}

// writeLease atomically replaces the lease file for key with rec
// (temp + fsync + rename, then a directory fsync).
func (m *Manager) writeLease(key string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("lease: encoding lease: %w", err)
	}
	return writeFileAtomic(m.cfg.Dir, key+".lease", data)
}

// readPoison returns the quarantine marker for key, if one exists under the
// manager's schema. Foreign-schema markers are ignored (and removed: the
// world they poisoned no longer exists).
func (m *Manager) readPoison(key string) (*Poison, bool, error) {
	data, err := os.ReadFile(m.poisonPath(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("lease: reading poison marker: %w", err)
	}
	var p Poison
	if jerr := json.Unmarshal(data, &p); jerr != nil || p.Schema != m.cfg.Schema || p.Key != key {
		os.Remove(m.poisonPath(key))
		return nil, false, nil
	}
	return &p, true, nil
}

func (m *Manager) writePoison(key string, p *Poison) error {
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return fmt.Errorf("lease: encoding poison marker: %w", err)
	}
	if err := writeFileAtomic(m.cfg.Dir, key+".poison", data); err != nil {
		return err
	}
	return nil
}

// Sweep removes stale lease files among the given keys: leftovers of
// workers that died after publishing their result but before releasing.
// Fresh leases (live peers still executing a duplicate) are left alone.
// Returns how many files were removed.
//
// Sweep is post-campaign cleanup, not a liveness decision: nothing is taken
// over, so it may use the mtime hint (every renewal rewrites the file, so a
// live holder's lease always has a recent mtime on any real filesystem). A
// lease a sweep wrongly removes is re-created by its holder's next renewal
// race at worst, and duplicates publish identical bytes.
func (m *Manager) Sweep(keys []string) int {
	removed := 0
	for _, key := range keys {
		_, mtime, _ := m.readLease(key)
		if mtime.IsZero() {
			continue
		}
		if m.now().Sub(mtime) > m.cfg.TTL {
			if os.Remove(m.leasePath(key)) == nil {
				removed++
			}
		}
	}
	return removed
}

// Claim is the outcome of Manager.Claim. For StateAcquired claims the
// caller runs the trial renewing the lease (cachestore.StartHeartbeat calls
// Renew through fsstore) and ends it with Release/Poison; the other states
// are informational.
type Claim struct {
	m   *Manager
	Key string
	// State says what happened; the remaining fields are state-specific.
	State State
	// Attempt is this execution's cross-worker attempt number (acquired).
	Attempt int
	// Reclaimed marks an acquisition that took over a stale lease.
	Reclaimed bool
	// Holder is the current owner when busy ("" if unreadable).
	Holder string
	// Remaining estimates how long until the busy lease could go stale.
	Remaining time.Duration
	// Poison is the quarantine record when poisoned.
	Poison *Poison

	lost atomic.Bool
}

// Renew extends the lease once (one logical heartbeat): it verifies the
// record is still ours, then atomically rewrites it with the sequence number
// bumped. Peers see the changed (owner, seq) pair and restart their
// staleness watch; the file's mtime plays no part. ErrLost means a peer took
// the lease over (this process was presumed dead — SIGSTOP, scheduler
// stall); the trial keeps executing, its eventual publish is byte-identical
// to the usurper's, but the lease is no longer ours to extend.
func (c *Claim) Renew() error {
	if c.State != StateAcquired {
		return fmt.Errorf("lease: renewing a claim in state %d", c.State)
	}
	if c.lost.Load() {
		return ErrLost
	}
	rec, mtime, ok := c.m.readLease(c.Key)
	if mtime.IsZero() || !ok || rec.Owner != c.m.cfg.Owner {
		c.markLost()
		return ErrLost
	}
	rec.Seq++
	if err := c.m.writeLease(c.Key, rec); err != nil {
		c.markLost()
		return ErrLost
	}
	return nil
}

// markLost records a takeover exactly once per claim.
func (c *Claim) markLost() {
	if !c.lost.Swap(true) {
		c.m.lost.Add(1)
		c.m.add("lease.lost", 1)
	}
}

// Lost reports whether a renewal discovered a peer took the lease over.
func (c *Claim) Lost() bool { return c.lost.Load() }

// Release ends an acquired claim after its result is published: the lease
// file is removed (only if still ours — a usurper's lease is its own to
// release). Safe to call on lost claims.
func (c *Claim) Release() {
	if c.State != StateAcquired {
		return
	}
	rec, mtime, ok := c.m.readLease(c.Key)
	if mtime.IsZero() || !ok || rec.Owner != c.m.cfg.Owner {
		c.markLost()
		return
	}
	if os.Remove(c.m.leasePath(c.Key)) == nil {
		c.m.released.Add(1)
		c.m.add("lease.released", 1)
	}
}

// PoisonTrial quarantines the claimed trial: every peer's next Claim
// returns StatePoisoned and fails the trial fast into its manifest. Used
// when the trial itself failed permanently (so peers inherit the failure
// instead of re-executing a deterministic error), and by Claim itself when
// the crash-loop attempt budget runs out. The lease is released.
func (c *Claim) PoisonTrial(specHash string, attempts int, cause error) error {
	if c.State != StateAcquired {
		return fmt.Errorf("lease: poisoning a claim in state %d", c.State)
	}
	msg := ""
	if cause != nil {
		msg = cause.Error()
	}
	err := c.m.writePoison(c.Key, &Poison{
		Schema:   c.m.cfg.Schema,
		Key:      c.Key,
		SpecHash: specHash,
		Attempts: attempts,
		Err:      msg,
	})
	if err == nil {
		c.m.poisoned.Add(1)
		c.m.add("lease.poisoned", 1)
	}
	c.Release()
	return err
}

// writeRecord writes rec to an open lease file and fsyncs it.
func writeRecord(f *os.File, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Sync()
}

// writeFileAtomic writes base under dir via temp + fsync + rename + dir
// fsync, so a reader (or a kill -9 survivor) sees either the old file, the
// new file, or nothing — never a torn write — and the rename survives a
// crash on filesystems that would otherwise reorder it past the data.
func writeFileAtomic(dir, base string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "."+base+".tmp*")
	if err != nil {
		return fmt.Errorf("lease: creating temp file: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("lease: writing %s: %w", base, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("lease: syncing %s: %w", base, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("lease: closing %s: %w", base, err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, base)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("lease: committing %s: %w", base, err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a just-renamed entry survives a crash.
// Filesystems that cannot sync directories (some network mounts) report
// EINVAL/ENOTSUP; those are ignored — the rename is still atomic, only the
// crash-durability window widens.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("lease: opening dir for sync: %w", err)
	}
	err = d.Sync()
	//lint:ignore durability read-only directory handle; Sync's error above is the durable signal
	d.Close()
	if err != nil && (errors.Is(err, errInvalid) || errors.Is(err, errNotSupported)) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("lease: syncing dir: %w", err)
	}
	return nil
}

var (
	errInvalid      = fs.ErrInvalid
	errNotSupported = errors.ErrUnsupported
)
