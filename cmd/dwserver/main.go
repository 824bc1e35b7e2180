// Command dwserver serves a warehouse over the framed binary wire
// protocol (internal/wire). Clients — internal/wireclient, or anything
// speaking the frame format — execute SQL, read materialized views
// through the lock-free snapshot path, and stream externally produced
// deltas that the warehouse group-commits across sessions.
//
//	dwserver -addr :7437 -secret s3cret -init schema.sql
//	dwserver -addr :7437 -wal /var/lib/dw -obs :7438
//
// With -wal the warehouse is durable: the directory is opened (and
// recovered) via the write-ahead log, and every mutation is logged before
// it is acknowledged. SIGINT/SIGTERM shut down gracefully: the listener
// stops, in-flight requests drain, and the WAL closes cleanly.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"mindetail/internal/obs"
	"mindetail/internal/wal"
	"mindetail/internal/warehouse"
	"mindetail/internal/wire"
)

type options struct {
	addr     string
	secret   string
	initFile string
	walDir   string
	walSync  string
	obsAddr  string
	maxConns int
	inflight int
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":7437", "TCP listen address")
	flag.StringVar(&o.secret, "secret", "", "shared secret clients must present in the handshake (empty = no auth)")
	flag.StringVar(&o.initFile, "init", "", "SQL script to execute at startup (DDL, loads, view definitions)")
	flag.StringVar(&o.walDir, "wal", "", "durable mode: open (and recover) a WAL-backed warehouse in this directory")
	flag.StringVar(&o.walSync, "wal-sync", "commit", "WAL fsync policy in -wal mode: always, commit, or never")
	flag.StringVar(&o.obsAddr, "obs", "", "HTTP address for the observability endpoint (/metrics, /metrics.json, pprof); empty = disabled")
	flag.IntVar(&o.maxConns, "max-conns", wire.DefaultMaxConns, "maximum concurrent client sessions (admission control)")
	flag.IntVar(&o.inflight, "inflight", wire.DefaultMaxInFlight, "maximum in-flight requests per session (backpressure)")
	flag.Parse()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Stdout, o, stop); err != nil {
		fmt.Fprintln(os.Stderr, "dwserver:", err)
		os.Exit(1)
	}
}

// run builds the warehouse, starts the server, and blocks until stop
// fires, then drains and closes everything in reverse order.
func run(out io.Writer, o options, stop <-chan os.Signal) error {
	var w *warehouse.Warehouse
	if o.walDir != "" {
		var sync wal.SyncPolicy
		switch o.walSync {
		case "always":
			sync = wal.SyncAlways
		case "commit":
			sync = wal.SyncCommit
		case "never":
			sync = wal.SyncNever
		default:
			return fmt.Errorf("unknown -wal-sync %q (always, commit, or never)", o.walSync)
		}
		d, err := wal.Open(o.walDir, wal.Options{Sync: sync})
		if err != nil {
			return err
		}
		defer d.Close()
		w = d.Warehouse()
		fmt.Fprintf(out, "durable warehouse at %s (recovered to LSN %d)\n", o.walDir, w.LSN())
	} else {
		w = warehouse.New()
	}

	if o.initFile != "" {
		sql, err := os.ReadFile(o.initFile)
		if err != nil {
			return err
		}
		if _, err := w.Exec(string(sql)); err != nil {
			return fmt.Errorf("init script %s: %w", o.initFile, err)
		}
		fmt.Fprintf(out, "executed init script %s\n", o.initFile)
	}

	if o.obsAddr != "" {
		url, closer, err := obs.Serve(o.obsAddr, w.ObsRegistry)
		if err != nil {
			return err
		}
		defer closer.Close()
		fmt.Fprintf(out, "observability at %s\n", url)
	}

	s, err := wire.Listen(w, o.addr, wire.Config{
		Secret:      o.secret,
		MaxConns:    o.maxConns,
		MaxInFlight: o.inflight,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "serving wire protocol on %s (max-conns %d, inflight %d)\n",
		s.Addr(), o.maxConns, o.inflight)

	<-stop
	fmt.Fprintln(out, "shutting down: draining sessions")
	if err := s.Close(); err != nil {
		return err
	}
	fmt.Fprintln(out, "bye")
	return nil
}
