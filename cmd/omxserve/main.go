// Command omxserve runs the simulator as a fault-tolerant service: an
// HTTP/JSON control plane over the sweep and tune executors with job
// supervision (deadlines, cancellation, panic isolation), graceful
// degradation (bounded admission queue shedding with 429, per-client
// caps, SIGTERM drain), and a crash-safe content-addressed result cache
// shared with the offline CLIs.
//
// Examples:
//
//	omxserve                                   # loopback, no cache
//	omxserve -addr 127.0.0.1:9090 -cache-dir /var/tmp/omxcache
//	omxserve -max-jobs 16 -job-timeout 2m -executors 2
//
// Submit work with plain HTTP — the request vocabulary is exactly the
// omxsweep/omxtune flag vocabulary:
//
//	curl -d '{"strategies":"timeout,openmx","delays":"0:100:25"}' localhost:8080/v1/sweep
//	curl localhost:8080/v1/jobs/j1/stream        # NDJSON per-point results
//	curl localhost:8080/v1/jobs/j1/result        # byte-identical to omxsweep -out -
//
// SIGTERM or SIGINT drains: submissions stop (503), queued jobs are
// cancelled, running jobs finish within -drain-timeout, and the process
// exits 0 on a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"openmxsim/internal/cliflag"
	"openmxsim/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := cliflag.Addr()
	cacheDir := cliflag.CacheDir()
	maxJobs := cliflag.MaxJobs()
	jobTimeout := cliflag.JobTimeout()
	maxPerClient := flag.Int("max-per-client", 4, "per-client in-flight job cap; beyond it submissions are shed with 429")
	executors := flag.Int("executors", 1, "jobs run concurrently (each parallelizes internally via -workers)")
	workers := flag.Int("workers", 0, "worker goroutines per job (0 = GOMAXPROCS)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "SIGTERM drain deadline before running jobs are force-cancelled")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/")
	flag.Parse()

	logger := log.New(os.Stderr, "omxserve: ", log.LstdFlags)

	var cache *serve.Cache
	if *cacheDir != "" {
		var err error
		cache, err = serve.OpenCache(*cacheDir, serve.ResultsVersion)
		if err != nil {
			return fail(err)
		}
		st := cache.Stats()
		logger.Printf("cache %s: %d entries verified, %d quarantined", cache.Dir(), st.Scanned-st.ScanQuarantined, st.ScanQuarantined)
	}

	cfgTimeout := *jobTimeout
	if cfgTimeout == 0 {
		cfgTimeout = -1 // Config treats 0 as "default"; the flag's 0 means none
	}
	srv := serve.New(serve.Config{
		Cache:        cache,
		MaxQueue:     *maxJobs,
		MaxPerClient: *maxPerClient,
		JobTimeout:   cfgTimeout,
		Workers:      *workers,
		Executors:    *executors,
		Log:          logger,
	})
	var handler http.Handler = srv
	if *pprofOn {
		// The profiling surface is opt-in: it exposes stacks, heap contents,
		// and CPU profiles, which do not belong on a default listener even a
		// loopback one. The wrapper mux routes /debug/pprof/ to the stock
		// handlers and everything else to the service unchanged.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv)
		handler = mux
		logger.Printf("pprof handlers exposed under /debug/pprof/")
	}
	hs := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	serveErr := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", *addr)
		serveErr <- hs.ListenAndServe()
	}()

	select {
	case err := <-serveErr:
		return fail(err) // bind failure or listener death; nothing to drain
	case <-ctx.Done():
	}
	logger.Printf("signal received; draining (deadline %v)", *drainTimeout)
	drainErr := srv.Drain(*drainTimeout)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	if drainErr != nil {
		logger.Printf("%v", drainErr)
		return 1
	}
	logger.Printf("drained cleanly")
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 1
}
