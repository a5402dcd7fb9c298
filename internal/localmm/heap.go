package localmm

import "repro/internal/semiring"

// heapEntry tracks one contributing list during a multiway merge (a column
// of A in a multiply, an operand's column in a merge): the current row
// index, which list it is, and the position inside that list.
type heapEntry struct {
	row  int32
	list int32
	ptr  int64
}

// rowHeap is a binary min-heap on (row, list). A hand-rolled heap avoids the
// interface indirection of container/heap in this hot loop. The list
// tie-break makes same-row contributions pop in operand order — exactly the
// order the hash accumulator adds them — so heap- and hash-based paths
// produce bit-identical float64 values, not merely equal structure: the
// kernel and merger knobs are speed attribution only, and the differential
// suites hold them to exact equality.
type rowHeap []heapEntry

// heapLess orders entries by row, ties by list (operand) index.
func heapLess(a, b heapEntry) bool {
	if a.row != b.row {
		return a.row < b.row
	}
	return a.list < b.list
}

func (h *rowHeap) push(e heapEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *rowHeap) pop() heapEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && heapLess(old[l], old[small]) {
			small = l
		}
		if r < n && heapLess(old[r], old[small]) {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

// heapMulColumn computes one output column with the multiway heap merge
// (ascending rows), appending it to w.rows/w.vals. The views of the A
// columns the B entries select (aSlots, as hashAccumulateColumn takes them;
// an empty list where A stores no such column, so list i stays scaled by
// bVals[i]) are fetched once into the worker's scratch and merged scaled by
// those entries — no per-column allocation.
func (w *mmWorker) heapMulColumn(a *colView, aSlots []int32, bVals []float64, sr *semiring.Semiring, plusTimes bool) {
	parts := w.parts[:0]
	for _, k := range aSlots {
		var part colPart
		if k >= 0 {
			part.rows, part.vals = a.col(k)
		}
		parts = append(parts, part)
	}
	w.parts = parts
	w.heapColumn(parts, bVals, sr, plusTimes)
}

// heapColumn k-way-merges the (sorted) lists of one column, appending the
// merged column to w.rows/w.vals: the operands' contributions of a merge
// (scale nil), or the A columns of a multiply, list i scaled by scale[i].
func (w *mmWorker) heapColumn(parts []colPart, scale []float64, sr *semiring.Semiring, plusTimes bool) {
	h := w.heap[:0]
	for li := range parts {
		if len(parts[li].rows) > 0 {
			h.push(heapEntry{row: parts[li].rows[0], list: int32(li), ptr: 0})
		}
	}
	for len(h) > 0 {
		e := h.pop()
		row := e.row
		var acc float64
		first := true
		for {
			part := parts[e.list]
			v := part.vals[e.ptr]
			if scale != nil && plusTimes {
				v *= scale[e.list]
			} else if scale != nil {
				v = sr.Mul(v, scale[e.list])
			}
			if first {
				acc, first = v, false
			} else if plusTimes {
				acc += v
			} else {
				acc = sr.Add(acc, v)
			}
			if next := e.ptr + 1; next < int64(len(part.rows)) {
				h.push(heapEntry{row: part.rows[next], list: e.list, ptr: next})
			}
			if len(h) == 0 || h[0].row != row {
				break
			}
			e = h.pop()
		}
		w.rows = append(w.rows, row)
		w.vals = append(w.vals, acc)
	}
	w.heap = h
}
