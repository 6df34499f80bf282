package driver

import (
	"sync"
	"time"
)

// Order makes a set of connections, each driven by its own goroutine,
// execute their batches in virtual-arrival order, so a multi-session replay
// is a pure function of the code rather than of the host scheduler. A
// joined connection's Exec parks with its arrival time; a parked batch is
// released only when every other joined connection is parked too or has
// left, and the lowest (arrival, join index) goes first. The released
// session then runs the rest of Exec and its own app code alone until it
// parks again or leaves: there is no lookahead, so sessions compute in
// parallel only before their first batch.
//
// Every connection joins before any of them submits, and each leaves when
// it will submit no more (after its final flush, on failure too), or the
// others wait for it forever. A connection that never joins executes its
// batches the moment it reaches the server.
type Order struct {
	mu    sync.Mutex
	slots []*orderSlot // in join order
	// running counts joined connections neither parked nor left; a batch is
	// released only when it is zero.
	running int
}

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
