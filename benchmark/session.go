package main

import (
	"time"

	"repro/internal/dispatch"
	"repro/internal/driver"
	"repro/internal/merge"
	"repro/internal/netsim"
	"repro/internal/orm"
	"repro/internal/querystore"
)

// pageRTT is the same-data-center round trip of the paper's headline runs.
const pageRTT = 500 * time.Microsecond

// session is one client's path to one server: link, connection, query
// store and (for the page workloads) ORM session.
type session struct {
	link  *netsim.Link
	conn  *driver.Conn
	store *querystore.Store
	orm   *orm.Session
	// merger is set only on traced sessions with merging on, where the
	// benchmark builds the pipeline itself and the store cannot see it.
	merger *merge.Merger
}

// openSession connects to srv over a fresh link on clock. Untraced, the
// store builds its own pipeline from cfg exactly as a deployment would.
// Traced, the benchmark builds the same pipeline from the same public
// constructors with its timing wrappers around the stage and the
// dispatcher.
func openSession(srv *driver.Server, clock netsim.Clock, rtt time.Duration, cfg querystore.Config, tr *tracer) *session {
	s := &session{link: netsim.NewLink(clock, rtt)}
	s.conn = srv.Connect(s.link)
	if tr == nil {
		s.store = querystore.New(s.conn, cfg)
		return s
	}
	var stages []dispatch.Stage
	if cfg.Merge.Enabled {
		s.merger = merge.New(cfg.Merge)
		stages = append(stages, tracedStage{dispatch.MergeStage(s.merger), tr})
	}
	var inner dispatch.Dispatcher
	if cfg.Dispatch == dispatch.KindAsync {
		inner = dispatch.NewAsync(s.conn, stages...)
	} else {
		inner = dispatch.NewSync(s.conn, stages...)
	}
	s.store = querystore.NewWithDispatcher(s.conn, cfg, tracedDispatcher{inner, tr})
	return s
}
