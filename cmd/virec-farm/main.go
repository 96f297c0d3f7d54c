// Command virec-farm is the long-running simulation service: a crash-safe
// persistent job queue with a worker pool and a content-addressed result
// cache, serving simulation, difftest and experiment jobs over HTTP (see
// internal/farm).
//
// Usage:
//
//	virec-farm -dir farm-data -addr :7741 -workers 8
//
// The data directory holds the append-only journal, the atomic
// checkpoint and the result cache; restarting against the same directory
// re-queues in-flight jobs, never re-runs completed ones, and serves
// previously computed results from cache. A job that fails stays failed;
// resubmitting its spec runs it again as a new job. SIGTERM/SIGINT drain
// gracefully: admission stops, in-flight jobs finish, pending jobs are
// checkpointed for the next start. A second signal exits immediately
// (the journal makes even that safe).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/virec/virec/internal/farm"
)

func main() {
	var (
		addr        = flag.String("addr", ":7741", "HTTP listen address")
		dir         = flag.String("dir", "farm-data", "persistence root: journal, checkpoint, result cache")
		workers     = flag.Int("workers", 0, "worker count (0 = all CPUs)")
		queueCap    = flag.Int("queue-cap", 1024, "max live jobs before submissions get 429")
		deadline    = flag.Duration("deadline", 15*time.Minute, "per-attempt job deadline (0 disables)")
		drainWait   = flag.Duration("drain-timeout", 2*time.Minute, "max wait for in-flight jobs on SIGTERM")
		noSync      = flag.Bool("no-sync", false, "skip fsync on journal appends (faster, loses power-failure durability)")
		streamEvery = flag.Duration("stream-every", time.Second, "how often /api/v1/metrics/stream re-reads the metrics and sends a changed snapshot")
	)
	flag.Parse()

	f, err := farm.Open(farm.Options{
		Dir:         *dir,
		Workers:     *workers,
		QueueCap:    *queueCap,
		JobDeadline: *deadline,
		SyncJournal: !*noSync,
	})
	if err != nil {
		fatal(err)
	}
	f.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: farm.NewServerWith(f, farm.ServerOptions{StreamInterval: *streamEvery})}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "virec-farm: serving on %s, data in %s (queue depth %d recovered)\n",
		ln.Addr(), *dir, f.QueueDepth())

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		fatal(err)
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "virec-farm: %v: draining (in-flight jobs finish, pending jobs checkpoint)\n", sig)
	}

	// Second signal: abandon the drain. The journal re-queues whatever
	// was in flight on the next start.
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "virec-farm: second signal, exiting immediately")
		os.Exit(1)
	}()

	// Drain before shutting HTTP down. Shutdown waits for every handler,
	// and an open metrics stream returns only once Drain stops the farm,
	// so the other order holds the exit for the whole drain timeout while
	// workers keep claiming pending jobs and new clients get "connection
	// refused" instead of a 503.
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	err = f.Drain(ctx)
	srv.Shutdown(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "virec-farm:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "virec-farm: drained cleanly")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "virec-farm:", err)
	os.Exit(1)
}
