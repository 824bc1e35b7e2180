package main

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"time"

	"mindetail/internal/maintain"
	"mindetail/internal/pager"
	"mindetail/internal/wal"
	"mindetail/internal/warehouse"
	"mindetail/internal/wire"
	"mindetail/internal/wireclient"
	"mindetail/internal/workload"
)

// stack is the system under test, composed the way cmd/dwserver and
// cmd/dwsim's durable run compose it: a WAL-backed warehouse on real disk
// (SyncCommit), sources detached and checkpointed, served on loopback, with
// one client connection.
type stack struct {
	dir string
	d   *wal.Durable
	w   *warehouse.Warehouse
	fac *pager.Factory
	srv *wire.Server
	cli *wireclient.Client
}

// buildStack performs the whole set-up in dir and returns it with the time
// it took: wal.Open -> DDL -> bulk load -> CREATE MATERIALIZED VIEW ->
// optional paged auxiliary stores -> DetachSources -> Checkpoint -> serve ->
// dial. A non-nil tracer installs the seam decorators.
func buildStack(spec *workloadSpec, img loadImage, dir string, tr *tracer) (*stack, time.Duration, error) {
	start := time.Now()
	s := &stack{dir: dir}
	fail := func(err error) (*stack, time.Duration, error) {
		s.close()
		return nil, 0, fmt.Errorf("set-up of %s: %w", spec.name, err)
	}
	var err error
	if s.d, err = wal.Open(dir, wal.Options{Sync: wal.SyncCommit}); err != nil {
		return fail(err)
	}
	s.w = s.d.Warehouse()
	s.w.SetObs(tr != nil)
	if _, err := s.w.Exec(workload.DDL()); err != nil {
		return fail(err)
	}
	for _, t := range tableOrder {
		if _, err := s.w.ImportCSV(t, bytes.NewReader(img[t]), false); err != nil {
			return fail(err)
		}
	}
	var ddl strings.Builder
	for _, v := range spec.views {
		fmt.Fprintf(&ddl, "CREATE MATERIALIZED VIEW %s AS %s;\n", v.name, v.sql)
	}
	if _, err := s.w.Exec(ddl.String()); err != nil {
		return fail(err)
	}
	var hook pager.WALHook = s.d.Log()
	if tr != nil {
		tl := &tracedLog{log: s.d.Log(), t: tr}
		s.w.SetWAL(tl)
		hook = tl
	}
	if p := spec.paged; p != nil {
		s.fac, err = pager.NewFactory(filepath.Join(dir, "pages"), pager.Options{
			PageSize: p.pageSize, PoolPages: p.poolPages, WAL: hook, Metrics: s.w.ObsRegistry(),
		})
		if err != nil {
			return fail(err)
		}
		if err := s.w.SetAuxStoreFactory(func(view, table string) (maintain.AuxStore, error) {
			st, err := s.fac.Open(view, table)
			if err != nil || tr == nil {
				return st, err
			}
			return tracedStore{AuxStore: st, t: tr}, nil
		}); err != nil {
			return fail(err)
		}
	}
	s.w.DetachSources()
	if err := s.d.Checkpoint(); err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	if tr != nil {
		ln = tracedListener{Listener: ln, t: tr}
	}
	s.srv = wire.Serve(s.w, ln, wire.Config{})
	if s.cli, err = wireclient.Dial(s.srv.Addr().String(), ""); err != nil {
		return fail(err)
	}
	return s, time.Since(start), nil
}

// close tears everything down without checkpointing: the client and the
// server (draining the pipeline), the page files (scratch by design), the
// log. Only the log's error matters to what recovery finds.
func (s *stack) close() error {
	if s.cli != nil {
		s.cli.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.fac != nil {
		s.fac.Close()
	}
	if s.d == nil {
		return nil
	}
	return s.d.Close()
}
