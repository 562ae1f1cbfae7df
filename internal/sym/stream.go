package sym

import (
	"fmt"
	"sort"
)

// StreamComposer consumes chunk summaries as they arrive — possibly out
// of order, as mappers finish at different times — and maintains the
// aggregation state composed through the longest contiguous prefix of
// chunk sequence numbers: a fold site, one state and the buffer of
// chunks waiting behind a gap. It is the incremental/streaming consumption
// mode the paper's conclusion points at ("a platform for interactive
// ad-hoc querying"): results tighten as chunks land, without waiting for
// a full barrier before composing.
//
// The composer takes ownership of the summaries handed to Add: once a
// chunk folds into the prefix the composer drops them, so a long stream
// holds live memory proportional to the out-of-order window, not to the
// number of chunks folded. Summaries still pending behind a gap are
// retained untouched until they fold.
//
// Chunks are identified by a dense sequence number starting at 0 (e.g.
// the (mapperID, recordID) order already used by the shuffle, flattened).
// Add is not safe for concurrent use; wrap with a lock if needed.
type StreamComposer[S State] struct {
	site    *Folder[S]
	prefix  *FoldState[S] // composed through chunks [0, next)
	next    int           // first missing sequence number
	pending map[int][]*Summary[S]
}

// NewStreamComposer starts a composer from the initial concrete state.
func NewStreamComposer[S State](newState func() S) *StreamComposer[S] {
	site := NewFolder(newSchema(newState))
	return &StreamComposer[S]{site: site, prefix: site.NewState(), pending: map[int][]*Summary[S]{}}
}

// Add delivers the ordered summaries of chunk seq, taking ownership of
// them. It returns the number of chunks newly folded into the prefix
// state (0 if seq leaves a gap). Delivering the same sequence number
// twice is an error. A chunk that fails to fold stays pending and the
// prefix state is left as it was.
func (c *StreamComposer[S]) Add(seq int, sums []*Summary[S]) (int, error) {
	if seq < c.next {
		return 0, fmt.Errorf("sym: chunk %d already composed", seq)
	}
	if _, dup := c.pending[seq]; dup {
		return 0, fmt.Errorf("sym: chunk %d delivered twice", seq)
	}
	c.pending[seq] = sums
	folded := 0
	for {
		sums, ok := c.pending[c.next]
		if !ok {
			break
		}
		if err := c.site.Add(c.prefix, sums); err != nil {
			return folded, fmt.Errorf("sym: folding chunk %d: %w", c.next, err)
		}
		delete(c.pending, c.next)
		c.next++
		folded++
	}
	return folded, nil
}

// Prefix returns the state composed through the contiguous prefix and
// the number of chunks it covers. The state must not be mutated and is
// invalidated by the next Add that folds a chunk.
func (c *StreamComposer[S]) Prefix() (S, int) {
	return c.prefix.State(), c.next
}

// Pending returns the sequence numbers received but not yet foldable
// (blocked behind a gap), in ascending order.
func (c *StreamComposer[S]) Pending() []int {
	out := make([]int, 0, len(c.pending))
	for seq := range c.pending {
		out = append(out, seq)
	}
	sort.Ints(out)
	return out
}

// Speculate returns the state composed through every received chunk in
// sequence order, skipping gaps. It answers "what does the result look
// like so far" for interactive consumption; the answer is exact once
// Pending is empty. The prefix state and pending summaries are not
// affected.
func (c *StreamComposer[S]) Speculate() (S, error) {
	cur := c.prefix.State()
	for _, seq := range c.Pending() {
		next, err := ApplyAll(cur, c.pending[seq])
		if err != nil {
			var zero S
			return zero, fmt.Errorf("sym: speculating through chunk %d: %w", seq, err)
		}
		cur = next
	}
	return cur, nil
}

// Done reports whether all chunks in [0, total) have been folded.
func (c *StreamComposer[S]) Done(total int) bool {
	return c.next >= total && len(c.pending) == 0
}
