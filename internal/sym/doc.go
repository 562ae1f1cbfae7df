// Package sym implements SYMPLE's symbolic data types and the symbolic
// execution engine that parallelizes user-defined aggregations (UDAs).
//
// A UDA iterates over an ordered list of records updating an aggregation
// state; the loop-carried dependence through that state normally forces
// sequential execution. SYMPLE breaks the dependence by running the UDA on
// each input chunk from an "unknown" symbolic initial state. The result of
// a chunk is a symbolic summary
//
//	⋀ᵢ PCᵢ(x) ⇒ s = TFᵢ(x)
//
// a set of paths, each pairing a path constraint PCᵢ over the unknown
// initial state x with a transfer function TFᵢ giving the final state as a
// function of x. Valid summaries partition the input space: the PCᵢ are
// pairwise disjoint and their disjunction is true. Composing the chunk
// summaries in input order reproduces exactly the sequential output.
//
// Three properties make this fast enough to run at disk speed (paper §2.3):
//
//   - Canonical forms. Every symbolic type keeps its constraint and
//     transfer in a closed canonical form (SymInt: lb ≤ x ≤ ub ⇒ a·x+b;
//     SymEnum: x ∈ S ⇒ (bound ? c : x)), so branch feasibility is decided
//     in constant time with no external solver.
//   - Restricted operations. A symbolic value only combines with concrete
//     values (e.g. two SymInts cannot be added or compared), so every
//     constraint mentions a single symbolic variable and a path constraint
//     is a conjunction of independent per-variable constraints.
//   - Path merging and explosion controls. Paths with identical transfer
//     functions merge when their constraints union back into canonical
//     form; if the live-path count still exceeds a bound, the engine emits
//     the summary so far and restarts fresh, trading parallelism for
//     sequential efficiency instead of blowing up.
//
// Aggregation states are plain Go structs whose symbolic fields implement
// Value and are enumerated by Fields (the Go analogue of the paper's
// list_fields, needed for clone/merge/serialize without reflection on the
// hot path). The Executor explores paths by re-running the user Update
// function under a lexicographically incremented choice vector, exactly as
// the paper's C++ library does with operator overloading (§5.1).
//
// Who owns what. A Schema is the compiled field plan of a State type and
// owns nothing else. Machinery belongs to sites, data to keys: an
// Executor is an exec site — it keeps the containers its paths and its
// run cache's transitions live in on a private stack, and a key that runs through it
// leaves only the bytes of its bundle (Reset, FeedBatch, AppendBundle);
// a Folder is a fold site — it keeps the containers bundles decode into
// and the spares it applies through, and a key owns one FoldState. A
// bundle is wire bytes from the one to the other. A Summary is the
// snapshot form for whoever wants to hold a chunk's function as a value
// — Finish produces them, ComposeAll and Apply consume them — and is
// never on the engine's data path.
package sym
