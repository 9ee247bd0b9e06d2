// Command guritad is the long-running campaign daemon: it serves the
// internal/serve HTTP/JSON API, executing submitted gurita.TrialSpec grids
// on the campaign engine with bounded admission, tenant-weighted fair
// scheduling, and a shared content-addressed result cache that dedups
// identical trials across tenants (single-flight per cache key).
//
// The daemon also exports that cache over HTTP (/v1/cache/): guritaworker
// and guritasim processes pointed at it with -cache-url share trials, trial
// leases, and manifest shards across machines with no shared filesystem —
// the daemon's disk is the cache, its clock arbitrates lease expiry
// (-cache-lease-ttl, -cache-lease-max-attempts).
//
// The config surface reuses the shared CLI flag groups (internal/cliflags),
// so -cache/-parallel/-trial-timeout/-obs-trace/-cpuprofile mean exactly
// what they mean in guritasim and figures. Fault profiles are per-trial
// daemon-side: submit them inside each spec's "faults" field rather than as
// daemon flags, so one tenant's chaos never leaks into another's results.
//
// Shutdown is graceful: the first SIGTERM/SIGINT stops admissions, lets
// in-flight trials finish (queued trials are skipped, but stay resumable
// from the cache), flushes every campaign manifest, and exits 0. A second
// signal hard-cancels in-flight simulations. -drain-timeout bounds the
// graceful phase.
//
// Usage:
//
//	guritad -listen localhost:6071 -cache /var/cache/gurita \
//	        -tenant prod=4 -tenant dev=1 -slots 8
//	curl -s localhost:6071/v1/stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gurita/internal/cliflags"
	"gurita/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "guritad:", err)
		var ue *usageError
		if errors.As(err, &ue) {
			fmt.Fprintln(os.Stderr, "run 'guritad -h' for flag usage")
		}
		os.Exit(1)
	}
}

// usageError marks bad-invocation errors so main can point at -h.
type usageError struct{ err error }

func (e *usageError) Error() string { return e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

func badUsage(format string, args ...any) error {
	return &usageError{fmt.Errorf(format, args...)}
}

func run() error {
	var (
		listen       = flag.String("listen", "localhost:6071", "serve the campaign API on this address (host:0 picks a free port)")
		addrFile     = flag.String("addr-file", "", "write the bound listen address to this file once serving (for scripts using :0)")
		slots        = flag.Int("slots", 0, "concurrently executing trials across all tenants (0 = -parallel)")
		capacity     = flag.Int("capacity", 1024, "max outstanding trials across all campaigns; beyond it submissions get 429")
		retryAfter   = flag.Int("retry-after", 5, "Retry-After hint on 429 responses, seconds")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "bound on the graceful drain after SIGTERM/SIGINT")
		cacheTTL     = flag.Duration("cache-lease-ttl", 0, "TTL for remote-cache trial leases handed to /v1/cache/ workers (0 = 5s)")
		cacheMaxAtt  = flag.Int("cache-lease-max-attempts", 0, "claim attempts per trial across remote-cache workers before quarantine (0 = 5)")
		tenants      = tenantWeights{}

		campaign = cliflags.RegisterCampaign(flag.CommandLine, "trials")
		leaseFl  = cliflags.RegisterLease(flag.CommandLine, true)
		profFl   = cliflags.RegisterProf(flag.CommandLine)
		obsFl    = cliflags.RegisterObs(flag.CommandLine, "for failed trials")
	)
	flag.Var(&tenants, "tenant", "tenant weight as name=weight (repeatable); unknown tenants get weight 1")
	flag.Parse()
	setFlags := cliflags.Set(flag.CommandLine)

	switch {
	case campaign.CacheDir == "":
		return badUsage("-cache DIR is required: the shared cache is the daemon's dedup layer and drain checkpoint")
	case *slots < 0:
		return badUsage("-slots must be >= 0, got %d", *slots)
	case *capacity < 1:
		return badUsage("-capacity must be >= 1 trials, got %d", *capacity)
	case *retryAfter < 1:
		return badUsage("-retry-after must be >= 1 seconds, got %d", *retryAfter)
	case *drainTimeout <= 0:
		return badUsage("-drain-timeout must be positive, got %v", *drainTimeout)
	case *cacheTTL < 0:
		return badUsage("-cache-lease-ttl must be >= 0, got %v", *cacheTTL)
	case *cacheMaxAtt < 0:
		return badUsage("-cache-lease-max-attempts must be >= 0, got %d", *cacheMaxAtt)
	case obsFl.Listen != "":
		return badUsage("-obs-listen is the single-campaign introspector; the daemon's own API serves progress (GET /v1/campaigns/{id})")
	}
	if err := campaign.Validate(); err != nil {
		return &usageError{err}
	}
	if err := leaseFl.Validate(setFlags, campaign); err != nil {
		return &usageError{err}
	}

	stopProf, err := profFl.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	srv, err := serve.New(serve.Config{
		CacheDir:     campaign.CacheDir,
		Workers:      campaign.Parallel,
		Force:        campaign.Force,
		TrialTimeout: campaign.TrialTimeout,
		Slots:        *slots,
		Capacity:     *capacity,
		RetryAfter:   *retryAfter,
		Tenants:      tenants,
		ObsTraceDir:  obsFl.TraceDir,
		ObsDumpDir:   obsFl.DumpDir,
		MultiProcess: leaseFl.Options(),

		CacheLeaseTTL:         *cacheTTL,
		CacheLeaseMaxAttempts: *cacheMaxAtt,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", *listen, err)
	}
	if *addrFile != "" {
		// Written atomically so a watcher never reads a half address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			return err
		}
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	effSlots := *slots
	if effSlots <= 0 {
		effSlots = campaign.Parallel
	}
	fmt.Fprintf(os.Stderr, "guritad: serving on http://%s (cache %s, %d slots, capacity %d)\n",
		ln.Addr(), campaign.CacheDir, effSlots, *capacity)

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "guritad: %v: draining (in-flight trials finish, queued trials skipped)\n", sig)
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	}

	// First signal: graceful drain. Second: hard-cancel in-flight trials.
	srv.Drain()
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "guritad: %v: aborting in-flight trials\n", sig)
		srv.Abort()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	waitErr := srv.Wait(ctx)
	// The API stays up through the drain so pollers watch it finish; only
	// then does the listener close.
	httpSrv.Close()
	if waitErr != nil {
		return waitErr
	}
	fmt.Fprintln(os.Stderr, "guritad: drained cleanly")
	return nil
}

// tenantWeights collects repeated -tenant name=weight flags.
type tenantWeights map[string]float64

func (t *tenantWeights) String() string {
	names := make([]string, 0, len(*t))
	for k := range *t {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%s=%g", k, (*t)[k])
	}
	return strings.Join(parts, ",")
}

func (t *tenantWeights) Set(v string) error {
	name, weight, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=weight, got %q", v)
	}
	w, err := strconv.ParseFloat(weight, 64)
	if err != nil || w <= 0 {
		return fmt.Errorf("weight must be a positive number, got %q", weight)
	}
	if *t == nil {
		*t = tenantWeights{}
	}
	(*t)[name] = w
	return nil
}
