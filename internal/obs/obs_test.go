package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
)

// TestNilTraceIsSafe pins the nil-safety contract the engine relies on:
// every Trace/ActiveSpan method must be a no-op on a nil receiver so
// call sites need no guards.
func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	job := tr.StartJob("nil-job")
	sp := tr.Start(KindMapAttempt, "t0")
	sp.Attr(AttrTask, 1).Tag(TagOutcome, "ok").End()
	job.End()
	tr.Start(KindCommit, "t0").End()
	tr.EmitRaw(&Span{Kind: KindJob})
	if id := tr.NewID(); id != 0 {
		t.Fatalf("nil trace issued id %d", id)
	}
	if id := sp.ID(); id != 0 {
		t.Fatalf("nil span has id %d", id)
	}
}

func TestTraceParentsSpansToJob(t *testing.T) {
	sink := NewMemSink()
	tr := NewTrace(sink)
	job := tr.StartJob("j")
	tr.Start(KindMapAttempt, "t0").
		Attr(AttrTask, 0).Attr(AttrAttempt, 1).Tag(TagOutcome, "ok").End()
	tr.Start(KindCommit, "t0").
		Attr(AttrTask, 0).Attr(AttrAttempt, 1).Tag(TagPhase, "map").End()
	job.Attr(AttrParallelism, 2).End()

	spans := sink.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	var root *Span
	for _, sp := range spans {
		if sp.Kind == KindJob {
			root = sp
		}
	}
	if root == nil {
		t.Fatal("no job span emitted")
	}
	for _, sp := range spans {
		if sp.Kind != KindJob && sp.Parent != root.ID {
			t.Errorf("%s span parented to %d, want job %d", sp.Kind, sp.Parent, root.ID)
		}
		if sp.End < sp.Start {
			t.Errorf("%s span ends before it starts", sp.Kind)
		}
	}
	if err := (Verifier{}).Check(spans); err != nil {
		t.Fatalf("trivial trace fails verification: %v", err)
	}
}

// jsonSpan is a JSONL line as the real JSON parser reads it.
type jsonSpan struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent"`
	Kind   string            `json:"kind"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]int64  `json:"attrs"`
	Tags   map[string]string `json:"tags"`
}

// TestJSONLSinkOutput checks the hand-rolled encoder against the real
// JSON parser: every line must parse back into the span, with
// deterministic key order and proper escaping of hostile names.
func TestJSONLSinkOutput(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := NewTrace(sink)
	job := tr.StartJob("job with \"quotes\" and\nnewline")
	tr.Start(KindCompose, `group"key`+"\x01\\end").
		Attr(AttrValues, 3).Attr(AttrGroups, 2).Attr(AttrPart, 1).
		Tag(TagRemote, "1").End()
	job.End()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for _, line := range lines {
		var sp jsonSpan
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("line is not valid JSON: %v\n%s", err, line)
		}
		if sp.ID == 0 || sp.Kind == "" || sp.End < sp.Start {
			t.Fatalf("decoded span malformed: %+v", sp)
		}
	}
	var got jsonSpan
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindCompose || got.Attrs["values"] != 3 || got.Tags["remote"] != "1" {
		t.Fatalf("compose span did not round-trip: %+v", got)
	}
	if got.Name != `group"key`+"\x01\\end" {
		t.Fatalf("hostile name mangled: %q", got.Name)
	}
}

// TestJSONLBytes pins the rendering byte for byte — the form the
// benchmark's traces and the verifier's readers take: fixed field order,
// empty fields omitted, attrs and tags in key-name order whatever order
// they were set in.
func TestJSONLBytes(t *testing.T) {
	sp := withSlots(&Span{ID: 7, Parent: 3, Kind: KindSegDecode, Name: "part-1", Start: 10, End: 25},
		[]attr{{AttrTask, 4}, {AttrRuns, 1}, {AttrBytes, 512}, {AttrAttempt, 0}, {AttrPart, 1}},
		[]tag{{TagRemote, "1"}, {TagOutcome, "ok"}})
	want := `{"id":7,"parent":3,"kind":"seg_decode","name":"part-1","start_ns":10,"end_ns":25,` +
		`"attrs":{"attempt":0,"bytes":512,"part":1,"runs":1,"task":4},"tags":{"outcome":"ok","remote":"1"}}` + "\n"
	if got := string(appendSpanJSON(nil, sp)); got != want {
		t.Fatalf("rendered\n%s want\n%s", got, want)
	}
	if got := string(appendSpanJSON(nil, &Span{ID: 1, Kind: KindJob})); got != `{"id":1,"kind":"job","start_ns":0,"end_ns":0}`+"\n" {
		t.Fatalf("bare span rendered %s", got)
	}
}

// Reset drops all collected spans.
func (m *MemSink) Reset() {
	m.mu.Lock()
	m.spans = m.spans[:0]
	m.mu.Unlock()
}

// TestSpanAllocs: recording a span — open, three attributes, a tag, end
// into an in-memory sink — allocates one object, the span record: an
// attribute or a tag is a store into it.
func TestSpanAllocs(t *testing.T) {
	sink := NewMemSink()
	tr := NewTrace(sink)
	tr.StartJob("allocs").End()
	const spans = 1000
	got := testing.AllocsPerRun(10, func() {
		sink.Reset()
		for i := 0; i < spans; i++ {
			tr.Start(KindMapExec, "exec").Attr(AttrTask, int64(i)).Attr(AttrGroups, 2).
				Attr(AttrBatchRecords, 8).Tag(TagOutcome, "ok").End()
		}
	})
	if perSpan := got / spans; perSpan > 1 {
		t.Fatalf("%.2f allocations per span, want at most 1", perSpan)
	}
}

func TestMultiSinkFansOut(t *testing.T) {
	a, b := NewMemSink(), NewMemSink()
	tr := NewTrace(MultiSink{a, b})
	tr.StartJob("j").End()
	if len(a.Spans()) != 1 || len(b.Spans()) != 1 {
		t.Fatalf("fan-out failed: %d / %d spans", len(a.Spans()), len(b.Spans()))
	}
}

// TestTraceConcurrentEmit exercises the sink and ID allocation from many
// goroutines; run under -race this is the data-race check for the whole
// span path.
func TestTraceConcurrentEmit(t *testing.T) {
	sink := NewMemSink()
	tr := NewTrace(sink)
	job := tr.StartJob("race")
	var wg sync.WaitGroup
	const workers, each = 8, 50
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Start(KindMapAttempt, "t").
					Attr(AttrTask, int64(w)).Attr(AttrAttempt, int64(i)).End()
			}
		}()
	}
	wg.Wait()
	job.End()
	spans := sink.Spans()
	if len(spans) != workers*each+1 {
		t.Fatalf("got %d spans, want %d", len(spans), workers*each+1)
	}
	ids := make(map[int64]bool, len(spans))
	for _, sp := range spans {
		if ids[sp.ID] {
			t.Fatalf("duplicate span id %d", sp.ID)
		}
		ids[sp.ID] = true
	}
}

func TestCPUProfile(t *testing.T) {
	path := t.TempDir() + "/cpu.pprof"
	stop, err := CPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	// One profile per process: a second call must fail, and must leave the
	// active profile's file alone even when it names the same path.
	if _, err := CPUProfile(path); err == nil {
		t.Fatal("second CPUProfile while one is active did not error")
	}
	stop()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("active profile's file was removed by the failed second call: %v", err)
	}
	if fi.Size() == 0 {
		t.Fatal("profile file is empty")
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) < 2 || buf[0] != 0x1f || buf[1] != 0x8b {
		t.Fatalf("profile is not a gzip stream (starts % x)", buf[:min(len(buf), 4)])
	}
	// And the profiler is free again afterwards.
	stop, err = CPUProfile(path)
	if err != nil {
		t.Fatalf("CPUProfile after stop: %v", err)
	}
	stop()
}
