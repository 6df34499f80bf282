package querystore

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/sqldb/engine"
)

// Registration is the reproduction's slice of the paper's runtime overhead
// (Sec. 6.6): every lazy query pays one Register, so a change to statement
// identity, the dedup index or result retention is measured here first.

func benchStore(b *testing.B) *driver.Conn {
	clock := netsim.NewVirtualClock()
	srv := driver.NewServer(engine.New(), clock, driver.CostModel{})
	conn := srv.Connect(netsim.NewLink(clock, 0))
	for _, sql := range []string{
		"CREATE TABLE items (id INT PRIMARY KEY, qty INT)",
		"INSERT INTO items (id, qty) VALUES (1, 5), (2, 7), (3, 2)",
	} {
		if _, err := conn.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
	return conn
}

func BenchmarkRegister(b *testing.B) {
	const q = "SELECT qty FROM items WHERE id = ? AND qty > ?"
	// miss: a read no pending statement matches (hash, probe, insert,
	// enqueue). The queue is emptied unexecuted every 32 registrations.
	b.Run("miss", func(b *testing.B) {
		s := New(benchStore(b), Config{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(s.queue) == 32 {
				s.queue = s.queue[:0]
				s.dedup.Reset()
			}
			if _, err := s.Register(q, int64(i), int64(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	// hit: the identical statement is already pending (hash, probe, Equal).
	b.Run("hit", func(b *testing.B) {
		s := New(benchStore(b), Config{})
		if _, err := s.Register(q, int64(7), int64(1)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Register(q, int64(7), int64(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	// fresh-store-1stmt: what a request on a new session pays before its
	// first query is pending — the store and everything it creates on first
	// use.
	b.Run("fresh-store-1stmt", func(b *testing.B) {
		conn := benchStore(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := New(conn, Config{})
			if _, err := s.Register(q, int64(7), int64(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	// batch32: a long-lived store's whole cycle — 32 distinct reads and 8
	// duplicates registered, flushed in one batch, every result read, the
	// request ended.
	b.Run("batch32", func(b *testing.B) {
		s := New(benchStore(b), Config{})
		var ids [40]QueryID
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := range ids {
				ids[k], _ = s.Register(q, int64(k%32), int64(1))
			}
			for _, id := range ids {
				if _, err := s.ResultSet(id); err != nil {
					b.Fatal(err)
				}
			}
			s.EndRequest()
		}
	})
}
