package mpi

// commPool is the per-communicator, per-rank free pool behind the split
// collectives: completed request structs and AllToAllv receive slices are
// recycled here so a steady-state communication loop — the batched SUMMA
// schedule posts and completes the same collectives once per stage per
// batch — performs zero heap allocations per send once warm.
//
// Ownership rules (see also doc.go): a pool belongs to exactly one rank's
// Comm handle and is only touched from that rank's goroutine, so no locking
// is needed. Objects handed out by the pool belong to the caller until they
// are explicitly returned (PutRecv) or implicitly returned by completing a
// request (Wait/WaitOverlap recycle the request struct itself — a request
// pointer is dead the moment its Wait returns and must not be retained).
type commPool struct {
	bcast []*BcastRequest
	a2a   []*AllToAllvRequest
	recv  [][]Payload
}

// poolCap bounds each free list so a one-off burst of concurrent requests
// does not pin memory forever.
const poolCap = 16

func (c *Comm) getBcastReq() *BcastRequest {
	if p := c.pool; p != nil {
		if n := len(p.bcast); n > 0 {
			r := p.bcast[n-1]
			p.bcast = p.bcast[:n-1]
			*r = BcastRequest{}
			return r
		}
	}
	return &BcastRequest{}
}

func (c *Comm) putBcastReq(r *BcastRequest) {
	if p := c.pool; p != nil && len(p.bcast) < poolCap {
		p.bcast = append(p.bcast, r)
	}
}

func (c *Comm) getA2AReq() *AllToAllvRequest {
	if p := c.pool; p != nil {
		if n := len(p.a2a); n > 0 {
			r := p.a2a[n-1]
			p.a2a = p.a2a[:n-1]
			*r = AllToAllvRequest{}
			return r
		}
	}
	return &AllToAllvRequest{}
}

func (c *Comm) putA2AReq(r *AllToAllvRequest) {
	if p := c.pool; p != nil && len(p.a2a) < poolCap {
		p.a2a = append(p.a2a, r)
	}
}

func (c *Comm) getRecv() []Payload {
	if p := c.pool; p != nil {
		if n := len(p.recv); n > 0 {
			s := p.recv[n-1]
			p.recv = p.recv[:n-1]
			if cap(s) >= c.size {
				s = s[:c.size]
				for i := range s {
					s[i] = nil
				}
				return s
			}
		}
	}
	return make([]Payload, c.size)
}

// PutRecv returns a receive slice obtained from an AllToAllv(-Start) on this
// communicator to the pool. Optional: callers that keep the slice simply let
// it go to the garbage collector; callers in a steady-state loop return it
// after consuming the payloads to make the next exchange allocation-free.
// The payload references themselves are shared objects and are not affected.
func (c *Comm) PutRecv(s []Payload) {
	if p := c.pool; p != nil && s != nil && len(p.recv) < poolCap {
		for i := range s {
			s[i] = nil
		}
		p.recv = append(p.recv, s)
	}
}

// addPending records a posted split-collective request; completePending
// retires it. The counter is shared by every communicator a rank derives via
// Split, and Run audits it after the ranks stop: a request that was posted
// but never completed silently drops its modeled cost from the meters, so a
// forgotten Wait is a metering bug, not a leak to shrug at.
func (c *Comm) addPending() {
	if c.pending != nil {
		*c.pending++
	}
}

func (c *Comm) completePending() {
	if c.pending != nil {
		*c.pending--
	}
}
