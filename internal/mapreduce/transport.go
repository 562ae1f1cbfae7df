package mapreduce

// The transport seam. All shuffle movement — committed map-output runs
// travelling from map-side producers to reduce partitions — crosses a
// Transport. The in-process engine uses memTransport (per-partition
// channels); internal/cluster implements the same seam across
// processes, streaming the identical encoded-run payloads through its
// length-prefixed TCP frame protocol.
// Because a Run carries the segcodec wire form either way, the reducer
// merge consumes byte-identical input regardless of placement — the
// property the transport-equivalence golden tests pin.

// Run is one committed spill run in wire form: the unit of shuffle
// movement every Transport carries. Seg holds the segcodec-encoded
// segment; a Run with nil Seg is a receipt (Config.RemoteReduce): the
// bytes already sit on the partition's owning worker.
type Run struct {
	// Task, Attempt, Part identify the producer: map task, committing
	// attempt, and destination reduce partition. They join the
	// run_commit/seg_decode trace spans the verifier matches.
	Task    int
	Attempt int
	Part    int
	// Bytes is the encoded (wire) size of the run.
	Bytes int64
	Seg   []byte
}

// RunSink is the producer half of a Transport: committing map attempts
// publish their runs into it. Worker-side cluster code publishes into a
// frame-writing sink; the in-process engine publishes into the full
// Transport directly.
type RunSink interface {
	// Publish delivers one committed run to its partition. It must not
	// block indefinitely when the transport was opened with enough
	// capacity for one run per (task, partition).
	Publish(Run) error
}

// Transport moves committed runs from map-side producers to reduce
// partitions. The engine calls Open once before any task starts,
// Publish once per committed non-empty (task, partition) run, and
// CloseSend exactly once after every map task has resolved; each
// reduce task then drains its Partition channel to completion.
type Transport interface {
	RunSink
	// Open readies numParts partition streams, each able to buffer
	// capacity runs (one per map task) without blocking producers.
	Open(numParts, capacity int)
	// Partition returns partition p's receive stream. The channel is
	// closed after CloseSend once all published runs are delivered.
	Partition(p int) <-chan Run
	// CloseSend marks production complete and closes every partition
	// channel. No Publish may follow.
	CloseSend()
}

// memTransport is the in-process Transport: one buffered channel per
// partition, sized for one run per map task so committing attempts
// never block on reducers.
type memTransport struct {
	chs []chan Run
}

// NewMemTransport returns the in-process Transport the engine defaults
// to when Config.Transport is nil.
func NewMemTransport() Transport { return &memTransport{} }

func (t *memTransport) Open(numParts, capacity int) {
	t.chs = make([]chan Run, numParts)
	for p := range t.chs {
		t.chs[p] = make(chan Run, capacity)
	}
}

func (t *memTransport) Publish(r Run) error {
	t.chs[r.Part] <- r
	return nil
}

func (t *memTransport) Partition(p int) <-chan Run { return t.chs[p] }

func (t *memTransport) CloseSend() {
	for p := range t.chs {
		close(t.chs[p])
	}
}
