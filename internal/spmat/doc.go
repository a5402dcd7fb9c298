// Package spmat provides the sparse matrix representations and operations
// used by every layer of the batched SUMMA3D stack: pluggable column-major
// storage (the Matrix interface) with two implementations — CSC and the
// doubly-compressed DCSC — an explicit sorted/unsorted flag, coordinate
// triples, splitting and concatenation primitives that implement the paper's
// layer and batch decompositions (Fig 1), and Matrix Market I/O.
//
// The column orientation mirrors the paper: local multiplies, merges, and
// batching all operate column-by-column, and the "sort-free" optimization of
// Sec. IV-D is expressed here as matrices whose columns are allowed to
// hold row indices in arbitrary order (SortedCols == false).
//
// # Storage formats
//
// CSC keeps a dense (cols+1)-entry column-pointer array — O(1) column
// lookup, O(cols) metadata. DCSC (Buluç & Gilbert) keeps metadata only for
// the non-empty columns (JC/CP index arrays over shared IR/Num entry
// arrays) — O(nzc) metadata — which is what hypersparse blocks need: a 3D
// grid's q·l-way column split leaves far more columns than nonzeros per
// block at scale (the paper's Rice-kmers regime, ~2 nnz per column). Lookup
// by column index is O(1) expected there too, through the format's AUX
// array: between nzc and 2·nzc equal chunks of the column range, each
// knowing where its stored columns start in JC, so a lookup searches only
// the handful of stored columns that share its chunk. AUX costs 4 bytes per
// chunk and one O(nzc) walk, paid by the first lookup on a block and never
// again; it is not part of the matrix — not serialized, not in CommBytes,
// not in the modeled footprint BlockMemBytes — because it is an accelerator
// the receiving side builds for itself, like the kernels' hash tables and
// worker scratch, which the paper's r-bytes-per-nonzero model does not count
// either (see the DCSC type). The Matrix interface (EnumCols, Column, MemBytes, the wire
// methods) lets kernels and the distributed core treat both uniformly;
// Format/WithFormat/AutoFormat select per block, compressing exactly when
// fewer than half the columns are occupied — the same threshold the wire
// encoding uses, so in-memory and on-wire compression agree.
//
// # Wire format
//
// The wire format (serialize.go) is chosen by occupancy alone, so both
// in-memory formats of a logical matrix serialize to identical bytes. One
// encoder writes it — for Serialize, FingerprintOf (streamed into sha256),
// ColSubsetView.SerializeInto and Segmented.WriteTo, each of which only
// describes its columns and entries — and one decoder reads it, from a slice
// or a stream (DeserializeMatrix, DeserializeMatrixInto, DeserializeFrom),
// a hypersparse buffer straight into DCSC.
//
// # Construction and comparison
//
// Matrices are built from coordinate Triples (FromTriples, accumulating
// duplicates through a semiring's add), generated (Identity), or parsed from
// Matrix Market streams (ReadMatrixMarket, hardened against hostile size
// lines, with a fuzz harness and checked-in corpus under testdata/fuzz). Equal compares structurally independent of
// within-column entry order — the comparison the sort-free kernels need —
// while ApproxEqual tolerates the summation-order differences distributed
// floating-point multiplies legitimately produce.
//
// # Distribution primitives
//
// SplitGrid deals a matrix out over a grid of row ranges × column ranges —
// a whole operand over a process grid, or one block's window of it — by
// counting and placing: every entry is copied once, into a block allocated
// at its exact size in its resolved format, and the column ranges are dealt
// on every core. LendGrid is the same deal with every block lent: its arrays
// drawn from the process's one free list of arrays (Draw, Give), which
// Release refills once nothing reads the block — for a grid dealt for one
// call. A lent matrix carries its loan (Lend): its header holds the shell of
// what it drew, which one Release gives back once, so localmm's lent kernel
// outputs and the engine's lent batch pieces of B (GatherColRanges) go back
// the same way, and a stale Release does nothing. The shell also holds the
// headers and metadata of the views cut from the matrix (MatColRanges) and
// keeps them for the next lent matrix, so a warm cut allocates nothing. The
// list keeps a ledger (Drawn): the bytes drawn and not yet given back — what
// lent matrices and busy kernel workers hold, a worker's idle chunk parked
// (Park) — and their high-water mark. CountGrid runs the deal's
// count pass alone, over the same bounds and goroutines: every block's
// entries and occupied columns, with nothing copied — how a grid is measured
// without being dealt. PartBounds,
// ColRange/RowRange, ColSelect (and its format-preserving MatColSelect, which
// the benchmark's serial replay gathers batches with), GatherColRanges
// (column ranges copied side by side, a bulk copy per range, into arrays
// lent from the free list or exact — the engine's batch pieces of B),
// MatColRanges (a matrix's consecutive column ranges as views over its
// entries — the fiber split), HCat, and the cyclic split helpers carve
// matrices into the block rows, block columns, layer slices, and
// block-cyclic batches of Fig 1, and reassemble piece outputs; CommBytes
// makes both formats mpi.Payloads so pieces can ride the simulated
// collectives with exact wire-size accounting (memoized per block, so the
// batched schedule's repeated broadcasts never rescan columns).
//
// # Dense panels
//
// DenseMat is the row-major dense matrix the sparse×dense (SpMM) engine
// multiplies sparse operands against — the tall-skinny feature panels of
// iterated solvers and GNN layers. It carries the same machinery the sparse
// types do: exact wire and memory sizing (the wire format's encoder and
// fuzzed decoder are test code, since the simulator delivers payloads by
// reference), row/column slicing
// for the 1.5D distributions, and exact (DenseEqual) plus
// tolerance-admitting (DenseApproxEqual) comparison. DenseFromCSC and
// ToCSC bridge the two worlds for densified-SUMMA execution and tests.
package spmat
