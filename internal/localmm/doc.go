// Package localmm implements the in-process SpGEMM and merging kernels used
// by every SUMMA stage. It contains both generations the paper compares:
//
//   - "previous": heap-based column SpGEMM and heap-based merging, which keep
//     every intermediate sorted (Azad et al. [13]), and the hybrid heap/hash
//     kernel of Nagasaka et al. [25] that sorts each output column;
//   - "new" (Sec. IV-D): sort-free hash SpGEMM and sort-free hash merging,
//     which leave intermediates unsorted and defer all sorting to the final
//     Merge-Fiber.
//
// All kernels are column-Gustavson: C(:,j) = Σ_{i : B(i,j)≠0} A(:,i)·B(i,j),
// and all accept an arbitrary semiring.
//
// # Kernels and mergers
//
// The Kernel and Merger enums name every generation for callers (the Table
// VII and Fig. 15 experiments pin the older ones), and every entry point
// takes one: ParallelSpGEMM(k, a, b, sr, threads), its format-generic form
// MulMat, and MergeMat(mg, …). Multiply is the sorted hash
// kernel on one thread, the serial reference. Which one runs is speed attribution only: every
// kernel × merger combination produces bit-identical output, including
// float64 values. That guarantee is engineered, not incidental — the hash
// paths accumulate each output entry in operand order, and the heap paths
// order rowHeap by (row, operand list) so same-row contributions pop in
// exactly that order; differential suites here and in core hold every
// combination to exact equality through full distributed runs, and because
// the heap pair shares no accumulator code with the hash pair, each is an
// oracle for the other. Nothing chooses among them: the zero values — the
// sort-free unsorted-hash kernel and hash merge — are what every planned run
// executes, having won every measured regime (BENCH_kernels.json,
// BenchmarkKernelCrossover); the others are explicit pins
// (core.Options.Kernel/Merger) for the paper's Table 7 / Fig. 15 ablations.
//
// A merge of one operand under the hash merger is that operand: MergeMat
// returns it, uncopied, unless it is asked to sort an unsorted one. A sorted
// merge of several drains its accumulator in ascending order, so the sort
// happens while the entries are still in the table.
//
// # The stages' merge
//
// A SUMMA layer merges its q stage products once, after the last stage (Alg.
// 1 line 8). The products need not exist for that: MulMerge takes the
// earlier materialized products — or their windows — and then the plans of
// the stages after them, in stage order, and a column window of the plans'
// B, and runs one pass over the window. Column by column it makes each
// planned stage's contributions as the kernel would and merges them with
// the earlier columns in stage order, so every row still sums ((s₁ + s₂) +
// s₃)…, bit for bit. The staged schedule hands it every stage's plan and no
// product; the pipelined one its q − 1 products and the last stage's plan.
// Under the hash merger, where a column has at most one earlier column — a
// product's part, or an earlier planned stage's column made in the worker's
// stage scratch — and the kernel hashes the last planned one, the table
// that accumulates the last column is the merge's too: a sorted drain
// inserts the earlier column as the first operand and walks the table
// ascending, an unsorted one walks the earlier column against the table —
// earlier + table where the row is held, with no jump on hit-or-new in the
// direct regime — and then drains the rows it did not meet in the kernel's
// order. Any other column — more earlier columns, the heap merger, a last
// column the kernel heap-merges — has every planned column made into the
// stage scratch in the order the merge reads it, and the merger's own
// routine runs over all of them, so the heap merger stays a heap merge of
// every stage's column. The output is bit-identical to MergeMat over the
// earlier parts and the windows of Plan.Mul — values, stored order, format,
// sorted flag — for every kernel, merger, semiring, format and thread count,
// and the pass returns the entry count the planned windows of the products
// would have had together.
//
// # One accumulator, two regimes
//
// Every hash kernel and merger folds one output column's contributions into
// a hashAccum, which has two slot functions chosen per column from the
// operand's row count — never from a setting. When a table of one slot per
// row fits directTableBytes (384 KiB: 2¹⁵ rows at the accumulator's 12
// bytes a row) the slot is the row: no hash, no probe, no overfill, and a
// row the operand cannot have is an index panic. Otherwise — the paper's own
// blocks of 10⁶–10⁷ rows, where a table per worker sized by the row range is
// not one anyone can keep — it is the open-addressing table of Sec. IV-D,
// sized by the column. The bound is measured, not guessed:
// BenchmarkAccumulatorCrossover reaches each regime by the declared row
// count and its table sits in the directTableBytes comment.
//
// Both regimes keep the values and the slots in insertion order the same
// way, so a worker alternates between them column by column, and the unsorted
// drain emits the same entries in the same order under either: contributions
// arrive in the same order, so rows are first seen in the same order. They
// differ in how a slot says it is taken. A hash slot holds its row and is
// emptied as the drain reads it. A direct slot is stamped, never cleared: row
// r is in the column when stamps[r] is the column's generation (stampTable,
// the symbolic pass's too), a new column takes the next generation, and the
// drain copies the insertion-order list as the rows and gathers the values —
// nothing is written to the table between columns. Under
// plus-times the insert is written out in the column loops of both regimes;
// other semirings call hashAccum.add. The direct regime's insert takes no
// jump on what the table holds — real blocks hit a present row 35–60 % of the
// time, which no predictor learns: the stamp and occupied[n] are stored
// unconditionally, n advances by the 0-or-1 outcome, and the value is picked
// between v and vals[r]+v on their bit patterns (selectValue). Every stored
// value and the drain order are those of the branch it replaced (only which
// payload survives NaN + NaN is the compiler's choice, as it was); the price
// is one spare entry of occupied, rows + 1, which sizeFor keeps whichever
// regime sized the arrays last. The hash regime's insert still branches: no
// bench/ workload reaches it to say what a select would buy there. A sorted
// drain of a direct table walks a bitmap of the occupied rows instead of
// sorting, unless the column is a handful of entries in a tall table.
//
// # Symbolic kernels
//
// SymbolicMat — Plan.Symbolic on a counted pair; SymbolicSpGEMM is the same
// loop over CSC operands on one worker — is the LOCALSYMBOLIC routine of
// Alg 3: it counts nnz(A·B) without touching values. Distinct rows are
// counted in the worker's rowSet under the same byte budget at 4 bytes a
// row: a generation stamp per row when that fits (nothing cleared between
// columns), a hash set sized by the column otherwise. No call allocates by
// the row count. The distributed symbolic step builds the batch count
// decision from these counts, so they must be exact, not estimates —
// Flops and MatFlops supply the companion statistics.
//
// # One plan
//
// Every kernel, merger, storage format and thread count runs the one-pass
// accumulate-then-place plan of parallel.go (MulMat and MergeMat; the CSC
// entry points ParallelSpGEMM and Multiply are that plan with CSC
// operands).
// The output columns are cut into contiguous ranges balanced by flop count
// (not column count); each worker hashes or heap-merges its range exactly
// once, appending finished columns to its own reusable chunk and leaving
// each column's entry count in the output's column pointers, which are
// prefix-summed in place. No column is hashed twice — the multiply and the
// merge need no symbolic pass to size their output — and worker scratch
// (accumulator, chunk, sort buffers) lives on a free list that survives
// garbage collection, so a warm call allocates the output and a fixed handful
// of small objects; a worker returns to the list with no table above
// maxKeptEntries entries, whichever of its tables grew, and the chunks that
// come back from loans wait beside it, maxIdleChunkBytes of them at most,
// for the workers that lent theirs. Sorted
// output that is not walked off a direct table is sorted per column by
// spmat.PairSorter, the repo's one pair sort.
//
// Who owns an output's entry arrays: the caller, always, with two exceptions.
// A call that ran several ranges allocates the arrays at their exact size and
// the workers place their chunks in parallel; a call that ran one range — any
// call too small for a second worker — returns an exactly-sized, unzeroed
// copy of its chunk. That is MulMat, Plan.Mul, MergeMat, MulMerge without
// lend and every entry point built on them. The exceptions are Plan.MulLent,
// MergeLent and MulMerge with lend, for an output that is read once and
// dropped — a pipelined SUMMA stage product on its way into Merge-Layer, a
// Merge-Layer output on its way through the fiber exchange, a batch a
// discarding hook consumes: the single-range output is the chunk itself, on
// loan until Loan.Return, and the worker goes back to the free list without
// it; a multi-range call returns an owned output and an empty Loan, and so
// does MergeLent's one-operand pass-through. Nothing else lends.
//
// The caller's goroutine executes one range itself: one worker — the
// default for all metered experiments, where rank goroutines are already
// concurrent — starts no goroutine. The threads argument of every entry
// point is a ceiling. A call runs fewer workers than allowed when it has
// fewer column slots or less than workPerExtraWorker of work — flops, or
// merge input entries — per extra worker (Workers): below that floor,
// measured by BenchmarkWorkerSpawnCrossover, waking a second worker costs
// more than half the work saves. Inside the distributed multiply the
// argument is the number of host cores the rank's compute section holds
// (mpi's compute gate, asked only for what Workers says the call can use;
// the paper's 16-threads-per-process Cori-KNL configuration is
// Options.Threads = 16 on a host with cores to spare). Workers shorten
// measured time without perturbing the communication model. Results are
// independent of the thread count: each output column is
// computed by one worker in serial operand order and drained in
// hash-insertion order, so float64 values and the entry order inside
// unsorted columns are bit-identical to the one-thread run.
//
// # Storage formats
//
// The kernels read operands through a positional column view over the
// spmat.Matrix storage interface: every column of a CSC is a slot, only the
// stored columns of a doubly-compressed (DCSC) operand are (for a merge of
// DCSC operands, the union of their stored columns), so symbolic and
// numeric work on a hypersparse block is O(flops + nnz) with no O(cols)
// scan or allocation anywhere. Output format follows B — the stored columns
// of A·B are a subset of B's — and a merge emits DCSC when every operand is
// DCSC. Values are bit-identical for every format combination, thread
// count, and merger, because columns are visited in the same order and
// entries accumulate in the same operand order. SymbolicMat and MatFlops
// are the symbolic step and the flop count over the same interface.
//
// A multiply finds A's columns by B's row indices once per block pair, in
// its Plan (PlanMul): the position of each B entry's column among a DCSC
// A's stored columns, found through the AUX array (spmat.DCSC.Locate), or
// the row itself for a CSC A. Plan.Symbolic and every kernel read A at
// those slots. The plan's arrays come from the worker free list and go back
// on Plan.Release; the one-shot entry points (MulMat, SymbolicMat,
// MatFlops, SymbolicSpGEMM) release the plans they make, and the
// distributed stages release theirs when the stage's work is done — a
// planned stage's once Merge-Layer's fused merge has read its last window. A
// fused merge keeps each planned window's flop counts, first slot and kernel
// view of A in that plan's arrays too.
//
// # Sparse×dense kernels
//
// SpMMInto multiplies a sparse operand by a row-major dense panel
// (spmat.DenseMat) — the local kernel of the 1.5D ColA/InnerABC schedules —
// folding each ring round's shifted block into a caller-owned resident
// accumulator; SpMMSerial is the differential reference distributed runs
// must match bit for bit on integer-valued operands. The threaded form
// splits the panel's columns evenly across workers (each dense column costs
// exactly nnz(A) flops), so values are identical for every thread count.
// SpMMFlops supplies the work-unit accounting the meters and planner share.
package localmm
