package mpi

import "fmt"

// This file implements the split (non-blocking) broadcast the pipelined SUMMA
// schedule needs: IbcastStart posts the collective and performs the data
// movement, Wait/WaitOverlap complete it and charge the meter. The split
// mirrors MPI_Ibcast/MPI_Wait with the metering convention real codes
// observe: the time an Ibcast costs the caller is the time spent *waiting*
// for it, not the time spent posting it. Nothing is charged at post time;
// the modeled α–β cost is charged when the request is completed, to whatever
// category the meter points at then.
//
// Because the simulated transport is shared memory, the payload exchange
// itself completes eagerly inside IbcastStart (MPI implementations are free
// to progress a nonblocking collective at any point between post and wait).
// The barriers that order the exchange therefore run at post time, which is
// what lets a pipelined caller post stage s+1, compute stage s, and then
// complete stage s+1 without any rank blocking inside another rank's compute
// section.

// BcastRequest is an in-flight non-blocking broadcast posted with
// IbcastStart or IbcastColsStart. Exactly one of Wait or WaitOverlap must be
// called, by the same rank goroutine that posted it; the pointer is recycled
// into the communicator's pool when the wait returns and must not be
// retained after that.
type BcastRequest struct {
	c       *Comm
	meter   *Meter
	payload Payload
	bytes   int64
	cost    float64
	done    bool
}

// IbcastStart posts a broadcast of root's payload without charging the
// meter. All ranks of the communicator must post collectively and in the
// same order (as with every collective here); the returned request holds the
// broadcast payload and its modeled cost until Wait or WaitOverlap claims
// them.
func (c *Comm) IbcastStart(root int, msg Payload) *BcastRequest {
	if root < 0 || root >= c.size {
		panic(fmt.Sprintf("mpi: broadcast root %d out of range [0,%d)", root, c.size))
	}
	if c.rank == root {
		c.core.slots[root] = msg
	}
	c.Barrier()
	out, _ := c.core.slots[root].(Payload)
	c.Barrier()
	var n int64
	if out != nil {
		n = out.CommBytes()
	}
	r := c.getBcastReq()
	*r = BcastRequest{
		c:       c,
		meter:   c.meter,
		payload: out,
		bytes:   n,
		cost:    c.cost.BcastCost(c.size, n),
	}
	c.addPending()
	return r
}

// IbcastColsStart posts the sparse variant of IbcastStart: every receiver
// declares, through subsetBytes, the wire size of the column subset of the
// payload its local computation actually touches, and the collective decides
// — consistently on every rank — whether shipping the subsets point-to-point
// beats the tree broadcast of the full block.
//
// subsetBytes is called (away from the root) with the staged full payload, so
// a receiver can size its subset against the sender's real column occupancy;
// it corresponds to the root evaluating the receiver's pre-exchanged column
// list, which the caller obtained from its symbolic pass. The sizes are
// shared through an extra barrier pair so root and receivers agree on the
// decision and on the totals.
//
// When the subsets win (or force is set), the root is charged like a
// personalized send of the summed subset bytes — α·(size−1) + β·Σ — and each
// receiver like one point-to-point receive of its own subset, α + β·bytes.
// Otherwise the request is charged exactly like IbcastStart, byte-for-byte,
// so a caller that gates the feature off meters identically to the plain
// path. As with IbcastStart, nothing is charged until Wait/WaitOverlap, and
// the payload every rank gets back is the shared full-block reference —
// receivers read only the columns they declared, which is what makes the
// subset exchange a pure metering (and, on a real network, volume) change.
func (c *Comm) IbcastColsStart(root int, msg Payload, subsetBytes func(full Payload) int64, force bool) *BcastRequest {
	if root < 0 || root >= c.size {
		panic("mpi: IbcastColsStart root out of range")
	}
	if c.rank == root {
		c.core.slots[root] = msg
	}
	c.Barrier()
	out, _ := c.core.slots[root].(Payload)
	var nFull int64
	if out != nil {
		nFull = out.CommBytes()
	}
	mine := nFull
	if c.rank != root && subsetBytes != nil {
		mine = subsetBytes(out)
	}
	c.core.i64buf[c.rank] = mine
	c.Barrier()
	var sum, maxRecv int64
	for r := 0; r < c.size; r++ {
		if r == root {
			continue
		}
		n := c.core.i64buf[r]
		sum += n
		if n > maxRecv {
			maxRecv = n
		}
	}
	c.Barrier()

	fullCost := c.cost.BcastCost(c.size, nFull)
	rootCost := c.cost.AllToAllCost(c.size, sum)
	recvCost := c.cost.AlphaSec + c.cost.BetaSecPerByte*float64(maxRecv)
	subset := c.size > 1 && (force || max(rootCost, recvCost) < fullCost)

	r := c.getBcastReq()
	*r = BcastRequest{c: c, meter: c.meter, payload: out}
	switch {
	case !subset:
		r.bytes, r.cost = nFull, fullCost
	case c.rank == root:
		r.bytes, r.cost = sum, rootCost
	default:
		r.bytes = mine
		r.cost = c.cost.AlphaSec + c.cost.BetaSecPerByte*float64(mine)
	}
	c.addPending()
	return r
}

// Wait completes the request: the full modeled cost and the payload bytes
// are charged to the meter's current category — the wait-time attribution —
// and the broadcast payload is returned. A Bcast and an IbcastStart
// immediately followed by Wait meter identically.
func (r *BcastRequest) Wait() Payload {
	p, _ := r.WaitOverlap(0, "")
	return p
}

// WaitOverlap completes the request like Wait but treats up to credit
// seconds of the modeled cost as hidden behind work the rank performed
// between post and wait: the hidden share is charged to hiddenCat's
// HiddenSeconds — kept out of exposed comm and critical-path totals, since
// it ran concurrently with compute that is already counted there — while
// messages and bytes always stay with the primary category so volume
// accounting is mode-independent. Only the exposed remainder is charged to
// the meter's current category. It returns the payload and the credit
// actually consumed, so a caller completing several requests against one
// compute window can drain a shared credit pool.
func (r *BcastRequest) WaitOverlap(credit float64, hiddenCat string) (Payload, float64) {
	if r.done {
		panic("mpi: BcastRequest completed twice")
	}
	r.done = true
	used := completeOverlap(r.meter, r.bytes, r.cost, credit, hiddenCat)
	p := r.payload
	if r.c != nil {
		r.c.completePending()
		r.c.putBcastReq(r)
	}
	return p, used
}

// completeOverlap is the shared wait-time charge of the split collectives
// (BcastRequest, AllToAllvRequest): up to credit seconds of the modeled cost
// are hidden behind hiddenCat's HiddenSeconds, the exposed remainder is
// charged to the meter's current category, and the message/byte volume always
// stays with the current category so accounting is mode-independent. Returns
// the credit actually consumed.
func completeOverlap(m *Meter, bytes int64, cost, credit float64, hiddenCat string) float64 {
	hidden := credit
	if hidden > cost {
		hidden = cost
	}
	if hidden < 0 {
		hidden = 0
	}
	m.addComm(1, bytes, cost-hidden)
	if hidden > 0 && hiddenCat != "" {
		// addHidden also records the hidden span as the most recent one, which
		// is what lets the overlap ledger's claim site tag it with a channel.
		m.addHidden(hiddenCat, hidden)
	}
	return hidden
}
