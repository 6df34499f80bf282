package driver

import (
	"sync"
	"time"

	"repro/internal/netsim"
)

// Order makes a set of connections, each driven by its own goroutine,
// execute their batches and app compute in virtual-arrival order, so a
// multi-session replay is a pure function of the code rather than of the
// host scheduler. A joined connection's Exec and Compute park with their
// arrival time; a parked connection is released only when every other
// joined connection is parked too or has left, and the lowest (arrival,
// join index) goes first. The released session then runs alone until it
// parks again or leaves. Released arrivals are therefore monotone: nothing
// is ever placed before an arrival already placed.
//
// The order is also the app server: WebLanes web-CPU lanes, each a plain
// busy horizon. A joined Compute runs on the earliest-free lane, so app
// time queues once more than WebLanes sessions compute at once. Monotone
// arrivals mean a lane never has an idle gap worth backfilling, so a
// horizon is all a lane needs.
//
// Every connection joins before any of them submits, and each leaves when
// it will submit no more (after its final flush, on failure too), or the
// others wait for it forever. A connection that never joins executes its
// batches the moment it reaches the server.
type Order struct {
	mu    sync.Mutex
	slots []*orderSlot // in join order
	// running counts joined connections neither parked nor left; a parked
	// connection is released only when it is zero.
	running int
	// web holds each web-CPU lane's horizon: when its last compute ends.
	web [WebLanes]time.Duration
}

// WebLanes is the app server's core count: the paper's web host has 8.
const WebLanes = 8

// orderSlot is one joined connection's place in its Order.
type orderSlot struct {
	o       *Order
	arrival time.Duration
	parked  bool
	// wake carries the one release a park waits for; the send under o.mu
	// never blocks, since a slot is woken at most once per park.
	wake chan struct{}
}

// Join adds c to the order. A connection joins at most one order, once.
func (o *Order) Join(c *Conn) {
	s := &orderSlot{o: o, wake: make(chan struct{}, 1)}
	o.mu.Lock()
	o.slots = append(o.slots, s)
	o.running++
	o.mu.Unlock()
	c.order = s
}

// Leave takes the connection out of its order, releasing the batches that
// waited only for it; its later batches execute unordered. It is a no-op on
// a connection that never joined. Call it from the connection's goroutine.
func (c *Conn) Leave() {
	s := c.order
	if s == nil {
		return
	}
	c.order = nil
	s.o.mu.Lock()
	s.o.running--
	s.o.releaseLocked()
	s.o.mu.Unlock()
}

// park blocks the connection's goroutine until its batch, arriving at
// arrival, is the next one in order.
func (s *orderSlot) park(arrival time.Duration) {
	s.o.mu.Lock()
	s.arrival, s.parked = arrival, true
	s.o.running--
	s.o.releaseLocked()
	s.o.mu.Unlock()
	<-s.wake
}

// Compute charges d of app-server CPU to the connection's timeline. An
// unjoined connection advances its clock by d. A joined one parks at its
// arrival, the way a batch does, then runs d on its order's earliest-free
// web-CPU lane (lowest index on ties) and advances its clock to the end of
// that run: app time waits for a core only when every core is busy.
func (c *Conn) Compute(d time.Duration) {
	clock := c.link.Clock()
	if c.order == nil {
		clock.Advance(d)
		return
	}
	if d <= 0 {
		return
	}
	arrival := clock.Now()
	c.order.park(arrival)
	o := c.order.o
	o.mu.Lock()
	lane := 0
	for i, h := range o.web {
		if h < o.web[lane] {
			lane = i
		}
	}
	done := max(arrival, o.web[lane]) + d
	o.web[lane] = done
	o.mu.Unlock()
	netsim.AdvanceTo(clock, done)
}

// releaseLocked wakes the lowest parked (arrival, join index) once no joined
// connection is running. The caller holds o.mu.
func (o *Order) releaseLocked() {
	if o.running > 0 {
		return
	}
	var next *orderSlot
	for _, s := range o.slots {
		if s.parked && (next == nil || s.arrival < next.arrival) {
			next = s
		}
	}
	if next == nil {
		return
	}
	next.parked = false
	o.running++
	next.wake <- struct{}{}
}
