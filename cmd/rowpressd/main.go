// Command rowpressd is the RowPress reproduction's serving daemon: it
// exposes every registered experiment regenerator over HTTP, executing
// runs on a sharded worker-pool engine and memoizing completed shards in
// a content-addressed cache so repeated and overlapping requests are
// served from memory. With -cache-dir, completed shards are also
// persisted to a size-bounded on-disk store, so a restarted daemon
// answers previously computed runs without re-executing anything.
//
// Observability: every request is logged through log/slog (-log-level
// picks the floor; request id, method, path, status, duration, shard
// counts), /metrics serves the Prometheus text exposition, /v1/healthz
// answers liveness/readiness probes (readiness flips to 503 while the
// daemon drains), and -pprof exposes net/http/pprof under /debug/pprof/.
//
// The daemon shuts down gracefully: SIGINT/SIGTERM mark the server
// draining (readiness goes 503 so load balancers stop routing) and stop
// the listener, in-flight requests drain through http.Server.Shutdown
// (bounded by -drain-timeout), and the disk-cache index is flushed
// before exit.
//
// Every completed run and sweep is stamped into the run ledger
// (internal/ledger), the daemon's one run history: /v1/results,
// /v1/history and /v1/compare all read it. With -ledger-dir the ledger
// is an append-only file, so identity and document hashes, wall time,
// tier-split shard counts, and latency aggregates survive restarts.
// Without it the ledger is memory-only: it keeps this process's newest
// runs, writes no file, and computes no document hashes, so
// /v1/compare reports its determinism check as skipped.
//
// With -peers, the daemon becomes a fabric coordinator: shard keys are
// consistent-hashed across the peer set (internal/fabric) and
// non-locally-owned shards are dispatched to the owning peer over
// /v1/shard, with that peer's mem/disk tiers acting as a shared remote
// cache. Peers are plain rowpressd daemons — they need no flags of
// their own, and a symmetric fleet lists every other member in each
// daemon's -peers. Failure semantics: one retry with backoff, hedged
// requests against the next ring member when the owner is slower than
// its own observed p95 latency, a per-peer circuit breaker, and
// graceful local-execute fallback — a degraded fleet is slower, never
// wrong.
//
// Usage:
//
//	rowpressd [-addr :8271] [-workers N] [-cache ENTRIES] [-warm 0.05]
//	          [-cache-dir DIR] [-cache-disk-bytes N] [-drain-timeout 10s]
//	          [-ledger-dir DIR] [-ledger-bytes N]
//	          [-peers URL,URL] [-log-level info] [-pprof]
//
// Endpoints: /healthz, /v1/healthz, /metrics, /v1/experiments,
// /v1/scenarios, /v1/run/{exp}, /v1/sweep, /v1/shard, /v1/results,
// /v1/metrics, /v1/history, /v1/compare.
// Examples:
//
//	curl 'localhost:8271/v1/run/fig6?scale=0.1&modules=S0,S3&format=text'
//	curl 'localhost:8271/v1/run/fig6?scale=0.1&format=ndjson'   # stream shard events
//	curl 'localhost:8271/v1/scenarios?format=csv'
//	curl -X POST 'localhost:8271/v1/sweep?format=csv' \
//	  -d '{"experiment":"fig6","scales":[0.05,0.1],"module_sets":[["S0","S3"],["H0","H4"]]}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/ledger"
	"repro/internal/serve"
)

func main() {
	d, err := newDaemon(os.Args[1:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.As(err, new(usageError)):
		fmt.Fprintf(os.Stderr, "rowpressd: %v\n", err)
		os.Exit(2)
	case err != nil:
		fmt.Fprintf(os.Stderr, "rowpressd: %v\n", err)
		os.Exit(1)
	}
	srv := &http.Server{Addr: d.addr, Handler: d.server, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("rowpressd serving %d experiments on %s (%d workers, %d-entry cache)",
		len(core.List()), d.addr, d.server.Engine().Workers(), d.cacheEntries)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second signal kills immediately

	d.server.SetDraining(true) // /v1/healthz readiness answers 503 from here on
	log.Printf("shutting down: draining in-flight requests (up to %s)", d.drainTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), d.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
	}
	d.close()
}

// daemon is rowpressd assembled from its command line: everything but
// the listener, the signals and the drain, which main owns.
type daemon struct {
	server       *serve.Server
	addr         string
	drainTimeout time.Duration
	cacheEntries int
	// close flushes the disk-cache index and closes the run ledger; call
	// it once the server has stopped taking requests.
	close func()
}

// usageError is a mistake in the command line itself: main exits 2 on
// it, as on a flag the parser rejects, and 1 on any other setup error.
type usageError struct{ error }

// newDaemon parses args on its own FlagSet and builds the engine, disk
// cache, -warm pass, fabric client, run ledger and server they describe.
// Nothing listens yet. A bad flag or -log-level fails before anything
// is opened.
func newDaemon(args []string) (*daemon, error) {
	fs := flag.NewFlagSet("rowpressd", flag.ContinueOnError)
	addr := fs.String("addr", ":8271", "listen address")
	workers := fs.Int("workers", 0, "concurrent shards (0 = GOMAXPROCS)")
	cacheEntries := fs.Int("cache", engine.DefaultCacheEntries, "max cached shard results (in-memory tier)")
	cacheDir := fs.String("cache-dir", "", "persistent shard-cache directory (warm-start across restarts)")
	cacheDiskBytes := fs.Int64("cache-disk-bytes", engine.DefaultDiskCacheBytes, "disk-cache size bound in bytes")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound for in-flight requests")
	ledgerDir := fs.String("ledger-dir", "", "persistent run-ledger directory (run history, /v1/history, /v1/compare)")
	ledgerBytes := fs.Int64("ledger-bytes", 0, "run-ledger size bound in bytes (0 = default)")
	warm := fs.Float64("warm", 0, "if > 0, pre-warm the cache by running every experiment at this scale before serving")
	peers := fs.String("peers", "", "comma-separated peer URLs; enables fabric coordinator mode (consistent-hash shard dispatch)")
	logLevel := fs.String("log-level", "info", "structured request-log floor: debug|info|warn|error|off")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, usageError{err}
	}
	logger, err := buildLogger(*logLevel)
	if err != nil {
		return nil, usageError{err}
	}

	eng := engine.New(*workers, *cacheEntries)
	if *cacheDir != "" {
		dc, err := engine.OpenDiskCache(*cacheDir, *cacheDiskBytes)
		if err != nil {
			return nil, fmt.Errorf("-cache-dir: %w", err)
		}
		eng.AttachDiskCache(dc)
		st := dc.Stats()
		log.Printf("disk cache %s: %d entries, %d bytes (bound %d)", dc.Dir(), st.Entries, st.Bytes, st.MaxBytes)
	}
	if *warm > 0 {
		o := core.DefaultOptions()
		o.Scale = *warm
		for _, e := range core.List() {
			if _, err := core.RunWith(eng, e.ID, o); err != nil {
				return nil, fmt.Errorf("warm %s: %w", e.ID, err)
			}
		}
		st := eng.Cache().Stats()
		log.Printf("cache warmed: %d shard results at scale %g", st.Entries, *warm)
	}

	sopts := []serve.Option{serve.WithLogger(logger)}
	if *peers != "" {
		fc, err := fabric.New(fabric.Config{Peers: strings.Split(*peers, ",")})
		if err != nil {
			return nil, fmt.Errorf("-peers: %w", err)
		}
		eng.AttachRemote(fc)
		sopts = append(sopts, serve.WithFabric(fc))
		log.Printf("fabric coordinator: %d peers", len(fc.Peers()))
	}
	led, err := ledger.Open(*ledgerDir, *ledgerBytes)
	if err != nil {
		return nil, fmt.Errorf("-ledger-dir: %w", err)
	}
	if *ledgerDir == "" {
		log.Printf("run ledger in memory: the newest %d records of this process", ledger.MemoryRecords)
	} else {
		st := led.Stats()
		log.Printf("run ledger %s: %d records, %d bytes (%d corrupt lines skipped)",
			*ledgerDir, st.Records, st.Bytes, st.Skipped)
	}
	sopts = append(sopts, serve.WithLedger(led))
	if *pprofOn {
		sopts = append(sopts, serve.WithPprof())
		log.Printf("pprof enabled on /debug/pprof/")
	}

	closeFn := func() {
		if dc := eng.Disk(); dc != nil {
			if err := dc.Flush(); err != nil {
				log.Printf("disk-cache flush: %v", err)
			} else {
				log.Printf("disk-cache index flushed (%d entries)", dc.Stats().Entries)
			}
		}
		if err := led.Close(); err != nil {
			log.Printf("ledger close: %v", err)
		} else {
			log.Printf("run ledger closed (%d records)", led.Stats().Records)
		}
	}
	return &daemon{
		server:       serve.New(eng, sopts...),
		addr:         *addr,
		drainTimeout: *drainTimeout,
		cacheEntries: *cacheEntries,
		close:        closeFn,
	}, nil
}

// buildLogger maps -log-level onto a stderr slog text logger; "off"
// discards request logs entirely (daemon lifecycle logs still print
// through the standard log package).
func buildLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	case "off":
		return slog.New(slog.DiscardHandler), nil
	default:
		return nil, fmt.Errorf("bad -log-level %q: want debug|info|warn|error|off", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}
