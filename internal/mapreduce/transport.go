package mapreduce

// The shuffle's unit of movement. A committed map attempt's runs travel
// to their reduce partitions over memTransport, wherever the attempt
// body ran: a cluster worker streams its runs back to the coordinator,
// which commits them exactly as it commits an in-process attempt's.
// Because a Run carries the segcodec wire form either way, the reducer's
// grouping consumes byte-identical input regardless of placement — the
// property the transport-equivalence golden tests pin.

// Run is one committed spill run in wire form. Seg holds the
// segcodec-encoded segment.
type Run struct {
	// Task, Attempt, Part identify the producer: map task, committing
	// attempt, and destination reduce partition. They join the
	// run_commit/seg_decode trace spans the verifier matches.
	Task    int
	Attempt int
	Part    int
	// Seg is the run's encoded segment (segcodec.go); its length is the
	// run's wire size.
	Seg []byte
}

// RunSink receives the runs a map attempt body publishes: the
// in-process attempt keeps them for its commit, a cluster worker writes
// them to its coordinator connection.
type RunSink interface {
	Publish(Run) error
}

// memTransport carries committed runs to the reduce tasks: one channel
// per partition, buffered for one run per map task so committing
// attempts never block on reducers, closed once every map task has
// resolved.
type memTransport []chan Run

func newMemTransport(numParts, capacity int) memTransport {
	t := make(memTransport, numParts)
	for p := range t {
		t[p] = make(chan Run, capacity)
	}
	return t
}

func (t memTransport) closeSend() {
	for _, ch := range t {
		close(ch)
	}
}
