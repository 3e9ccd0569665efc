// Command caasper-serve runs the recommender as a long-lived service:
// tenants POST metric samples over HTTP/NDJSON, decisions stream back
// with lazily materialised explanations, and the admin API retunes
// min/max core ranges and hot-swaps policies without a restart.
//
// The listener binds synchronously before any traffic is accepted, so a
// bad -addr fails fast; -addr-file writes the bound address (useful with
// -addr 127.0.0.1:0 in scripts). On SIGINT/SIGTERM the server stops
// accepting requests, drains every queued ingest batch, checkpoints to
// -snapshot when one is configured, and flushes telemetry — a restart
// from that snapshot resumes mid-window with bit-identical decisions.
//
// Examples:
//
//	caasper-serve -addr 127.0.0.1:8080 -snapshot state.ndjson
//	caasper-serve -addr 127.0.0.1:0 -addr-file addr.txt -decision-interval 5
//
//	curl -X PUT  localhost:8080/v1/tenants/acme -d '{"policy":"caasper","min_cores":2,"max_cores":16}'
//	printf '{"cpu":3.2}\n{"cpu":4.1}\n' | curl -X POST localhost:8080/v1/tenants/acme/samples --data-binary @-
//	curl 'localhost:8080/v1/tenants/acme/decisions?explain=1'
//	curl -X PUT  localhost:8080/v1/admin/tenants/acme/range -d '{"min_cores":4,"max_cores":32}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"caasper"
	"caasper/internal/obs"
)

// readHeaderTimeout bounds how long a client may take to send a
// request's headers, so a slow client cannot hold a connection open.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (use 127.0.0.1:0 for an ephemeral port)")
		addrFile    = flag.String("addr-file", "", "write the bound address to this file once listening")
		shards      = flag.Int("shards", 16, "tenant-map shard count (ingest parallelism)")
		queueDepth  = flag.Int("queue-depth", 256, "per-shard ingest queue depth (full queue answers 429)")
		decisionInt = flag.Int("decision-interval", 10, "samples between decisions per tenant")
		logSize     = flag.Int("decision-log", 512, "per-tenant decision records retained for the stream")
		snapshot    = flag.String("snapshot", "", "checkpoint file: restored at startup, written on shutdown and POST /v1/admin/snapshot")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	var cli obs.CLIConfig
	cli.Register(flag.CommandLine)
	flag.Parse()

	session, err := cli.Start()
	if err != nil {
		fatal(err)
	}
	defer session.Finish(os.Stdout)

	if _, err := obs.StartPprof(*pprofAddr, session.Log); err != nil {
		fatal(err)
	}

	srv, err := caasper.NewServer(caasper.ServeOptions{
		Shards:               *shards,
		QueueDepth:           *queueDepth,
		DecisionEveryMinutes: *decisionInt,
		DecisionLogSize:      *logSize,
		SnapshotPath:         *snapshot,
		Events:               session.Events,
		Metrics:              session.Metrics,
		Log:                  session.Log,
	})
	if err != nil {
		fatal(err)
	}

	// Bind synchronously so a bad address is a startup error, not a
	// silent goroutine death.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("caasper-serve: listening on %s\n", bound)

	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// Graceful drain: stop accepting, let in-flight requests finish,
	// drain the ingest queues, checkpoint, flush telemetry.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("\ncaasper-serve: %v — draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := httpSrv.Shutdown(ctx); err != nil {
			session.Log.Infof("shutdown: %v", err)
		}
		cancel()
	case err := <-serveErr:
		if err != nil && err != http.ErrServerClosed {
			srv.Close()
			fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "caasper-serve:", err)
	os.Exit(1)
}
