// Package localmm implements the in-process SpGEMM and merging kernels used
// by every SUMMA stage: the paper's new generation (Sec. IV-D), sort-free
// hash SpGEMM and sort-free hash merging, which leave intermediates unsorted
// and defer all sorting to the final Merge-Fiber.
//
// All kernels are column-Gustavson: C(:,j) = Σ_{i : B(i,j)≠0} A(:,i)·B(i,j),
// and all accept an arbitrary semiring.
//
// # Kernels and the merge
//
// The engine runs two kernels, named by Kernel: the sort-free unsorted-hash
// kernel (the zero value, what every planned run executes) and the sorted
// hash kernel, which sorts each output column — the pair the paper's
// sort-free claim is about. Every multiply takes one:
// ParallelSpGEMM(k, a, b, sr, threads), its format-generic form MulMat, the
// planned pair's Plan.Mul, and MulMerge. Multiply is the sorted hash kernel
// on one thread, the serial reference. There is one merge, the hash merge,
// and one merge loop: MulMerge, which Merge-Layer calls with the stages'
// plans and Merge-Fiber with none; MergeMat is MulMerge with no plan, and
// the Merger type it still takes names only the hash merge. Plan.multiply
// keeps a column loop of its own: the fused pass pays more per column than
// the multiply does, which shows on hypersparse blocks of about one flop a
// column (BenchmarkPlanMulHypersparse's diagonal pair, plan included: 86 µs
// through the pass, 62 µs directly, on a two-core Xeon). Both kernels produce
// bit-identical values, which differ only in the order a column's entries
// are stored: every output entry accumulates in operand order.
//
// The previous generation the paper compares against — the heap kernel and
// k-way heap merge of Azad et al. [13], which keep every intermediate
// sorted, and the hybrid heap/hash kernel of Nagasaka et al. [25] — lives
// only in this package's tests. There the differentials hold the hash
// kernels and the merge to it, bit for bit (its heap pops same-row
// contributions in operand order, and it shares no accumulator code with
// the hash paths, so it is an oracle for them), and make bench-kernels
// (BenchmarkKernelCrossover, BenchmarkMergeSortedOutput) measures it beside
// the engine: unsorted hash wins every measured regime (BENCH_kernels.json).
//
// A merge of one operand is that operand: MulMerge with no plan, and so
// MergeMat, returns it, uncopied, unless it is asked to sort an unsorted
// one. A sorted merge of several drains its accumulator in ascending order,
// so the sort happens while the entries are still in the table.
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
// With no plan no column has a planned
// part, and the pass is the merge of the earlier operands alone.
// Where a column has at most one earlier column — a product's part, or an
// earlier planned stage's column made in the worker's stage scratch — the
// table that accumulates the last planned column is the merge's too: a
// sorted drain inserts the earlier column as the first operand and walks
// the table ascending, an unsorted one walks the earlier column against the
// table — earlier + table where the row is held, with no jump on hit-or-new
// in the direct regime — and then drains the rows it did not meet in the
// kernel's order. A column with more earlier columns has every planned
// column made into the stage scratch in the kernel's order, and the merge's
// own routine runs over all of them. The output is bit-identical to the
// merge of the earlier parts and the windows of Plan.Mul's products — values,
// stored order, format, sorted flag — for every kernel, semiring, format
// and thread count, and the pass returns the entry count the planned
// windows of the products would have had together.
//
// # One accumulator, two regimes
//
// Every kernel and the merge fold one output column's contributions into a
// hashAccum, which has two slot functions chosen per column from the
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
// Every kernel, the merge, every storage format and thread count run the
// one-pass accumulate-then-place plan of parallel.go (Plan.multiply and
// MulMerge, behind every multiply and merge entry point; the CSC entry points
// ParallelSpGEMM and Multiply are that plan with CSC operands). The output
// columns are cut into contiguous ranges balanced by flop count (not column
// count); each worker hashes its range exactly once, appending finished
// columns to its own reusable chunk and leaving each column's entry count
// in the output's column pointers, which are prefix-summed in place. No column is hashed twice — the multiply and the
// merge need no symbolic pass to size their output — and worker scratch
// (accumulator, chunk, sort buffers) lives on a free list that survives
// garbage collection, so a warm call allocates the output and a fixed handful
// of small objects — a warm lent merge, fused or not, allocates only its
// output's header, its range body a method of its pass (a filler, not a
// closure); a worker
// returns to the list with no table above spmat.MaxKeptEntries entries,
// whichever of its tables grew. A range that
// makes output starts with a chunk of at least its entry bound, so no
// drained column grows it: one too small goes back to spmat's free list, with
// all that lent outputs give back, and the best fit comes from it. Sorted
// output that is not walked off a direct table is sorted per column by
// spmat.PairSorter, the repo's one pair sort.
//
// Who owns an output's entry arrays: the caller, unless it asks to borrow
// them. A call that ran several ranges allocates the arrays at their exact
// size and the workers place their chunks in parallel; a call that ran one
// range — any call too small for a second worker — returns an exactly-sized,
// unzeroed copy of its chunk. That is Plan.Mul and MulMerge without lend, and
// every entry point built on them (MulMat, MergeMat). The two take lend for
// an output that is read once and dropped — a pipelined SUMMA stage product
// on its way into Merge-Layer, a Merge-Layer output on its way through the
// fiber exchange, a batch a discarding hook consumes: the single-range output
// is the chunk itself, lent (spmat.Lend) until the caller releases it
// (spmat.Release), and the worker goes back to the free list without it; a
// multi-range call returns an owned output, and a one-operand merge passes
// its operand through. Nothing else lends. A lent output's column metadata —
// its pointers, and a DCSC output's stored columns — is drawn from spmat's
// free list too, and so is that of the column-range views the fiber split
// cuts from it (spmat.MatColRanges), and the headers of its views are its
// shell's: a warm lending call allocates nothing by the output's size or
// width, and metadata and view headers go back with the chunk. The output's
// own header is its own, so a stale spmat.Release of it does nothing.
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
// DCSC. Values are bit-identical for every format combination and thread
// count, because columns are visited in the same order and entries
// accumulate in the same operand order. SymbolicMat and MatFlops
// are the symbolic step and the flop count over the same interface.
//
// A multiply finds A's columns by B's row indices once per block pair, in
// its Plan (PlanMul): the position of each B entry's column among a DCSC
// A's stored columns, found through the AUX array (spmat.DCSC.Locate), or
// the row itself for a CSC A. Plan.Symbolic and every kernel read A at
// those slots. A plan lives in plan scratch on the worker free list with its
// arrays and the passes of its multiply and of a fused merge: PlanMul takes
// it off the list and Plan.Release puts it back whole, so nothing of the
// plan — Flops included — is read after its release, and a plan is released
// exactly once: the next PlanMul hands the same *Plan out; the one-shot entry
// points (MulMat, SymbolicMat, MatFlops, SymbolicSpGEMM) and the distributed
// stages read Flops first and release the plans they make when the stage's
// work is done — a planned stage's once Merge-Layer's fused merge has read
// its last window. A fused merge keeps each planned window's flop counts
// and first slot in that plan's arrays too, and its pass in the first
// plan's scratch.
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
