package cluster

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fuzzseed"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/wire"
)

var updateFuzzSeeds = flag.Bool("update-fuzz-seeds", false,
	"regenerate testdata/fuzz-seeds/frames from the current encoder")

// seedAssignment builds a realistic small assignment for the corpus.
func seedAssignment() *assignment {
	return &assignment{
		spec: JobSpec{Query: "G1", NumReducers: 3},
		task: 4, attempt: 1,
		faults: mapreduce.AttemptFaults{
			{Point: mapreduce.PointMapMid, Kind: mapreduce.KindKill, At: 17},
			{Point: mapreduce.PointRunSend, Kind: mapreduce.KindDelay, At: 1, Delay: 1500 * time.Microsecond},
		},
		segID: 4, segDigest: mapreduce.Digest{0xFEEDFACE, 0xC0FFEE},
		seg: &mapreduce.Segment{
			ID: 4,
			Records: [][]byte{
				[]byte("1700000000\trepo/alpha\tpush\tu1"),
				[]byte("1700000005\trepo/beta\tpull_open\tu2"),
				[]byte(""),
			},
		},
	}
}

// seedSpans builds a spans payload shaped like a real worker attempt.
func seedSpans() []*obs.Span {
	exec := &obs.Span{Kind: obs.KindMapExec, Name: "exec-4", Start: 100, End: 2100}
	exec.SetAttr(obs.AttrTask, 4)
	exec.SetAttr(obs.AttrBatchRecords, 3)
	exec.SetTag(obs.TagOutcome, "ok")
	return []*obs.Span{exec, {Kind: obs.KindSpillEncode, Name: "part0", Start: 2200, End: 2300}}
}

// frame wraps a payload in its wire framing.
func frame(t FrameType, payload []byte) []byte {
	return AppendFrame(nil, t, payload)
}

// helloWith builds a hello payload with arbitrary magic/version, for
// the corruption seeds.
func helloWith(magic, version uint64) []byte {
	e := wire.NewEncoder(8)
	e.Uvarint(magic)
	e.Uvarint(version)
	return e.Bytes()
}

// frameSeedCorpus builds the committed frame corpus: one genuine frame
// per protocol message type plus one seed per corruption class the
// decoders must reject. Names are load-bearing: corrupt-* seeds are
// asserted rejected by TestFuzzSeedFrameCorpus, valid-* accepted.
func frameSeedCorpus() []fuzzseed.Seed {
	assign := frame(FrameAssign, encodeAssign(seedAssignment()))
	hello := frame(FrameHello, encodeHello())
	run := frame(FrameRun, encodeRun(mapreduce.Run{
		Task: 4, Attempt: 1, Part: 2, Seg: []byte{0x01, 0x02, 0x03, 0x9C}}))
	done := frame(FrameMapDone, encodeMapDone(&mapDone{
		emitted: 7, duration: 1500 * time.Microsecond, logical: 46}))
	spans := frame(FrameSpans, encodeSpans(seedSpans()))

	// Oversized declared length: type byte plus uvarint(maxFrameLen+1).
	oversized := append([]byte{byte(FrameRun)}, binary.AppendUvarint(nil, maxFrameLen+1)...)

	digestOnly := seedAssignment()
	digestOnly.seg = nil
	emptySeg := seedAssignment()
	emptySeg.seg = &mapreduce.Segment{ID: emptySeg.segID}

	seeds := []fuzzseed.Seed{
		{Name: "valid-hello.bin", Data: hello},
		{Name: "valid-assign.bin", Data: assign},
		{Name: "valid-assign-digest-only.bin", Data: frame(FrameAssign, encodeAssign(digestOnly))},
		{Name: "valid-run.bin", Data: run},
		{Name: "valid-mapdone.bin", Data: done},
		{Name: "valid-spans.bin", Data: spans},
		{Name: "valid-assign-empty-segment.bin", Data: frame(FrameAssign, encodeAssign(emptySeg))},
		{Name: "valid-error.bin", Data: frame(FrameError, encodeError("mapper: boom"))},
		{Name: "valid-error-need-segment.bin", Data: frame(FrameError,
			encodeError(needSegmentPrefix+"00000000feedface0000000000c0ffee"))},
		{Name: "valid-jobsubmit.bin", Data: frame(FrameJobSubmit, EncodeJobSubmit(JobSubmit{
			Tenant: "acme", Query: "G1", Dataset: "github", Tail: true, TailEvery: 2}))},
		{Name: "valid-jobaccept.bin", Data: frame(FrameJobAccept, EncodeJobAccept(JobAccept{
			ID: 9, OK: true, QueuePos: 3}))},
		{Name: "valid-jobaccept-rejected.bin", Data: frame(FrameJobAccept, EncodeJobAccept(JobAccept{
			OK: false, Reason: "queue full: 64 jobs pending"}))},
		{Name: "valid-jobupdate.bin", Data: frame(FrameJobUpdate, EncodeJobUpdate(JobUpdate{
			ID: 9, Seq: 2, Digest: 0x5B4CE1A74A6DB4E3, NumResults: 74,
			Segments: 6, CacheHits: 5, MappedSegments: 1}))},
		{Name: "valid-jobresult.bin", Data: frame(FrameJobResult, EncodeJobResult(JobResult{
			ID: 9, Digest: 0x5B4CE1A74A6DB4E3, NumResults: 74,
			Segments: 6, CacheHits: 6, Updates: 4}))},
		{Name: "valid-jobresult-cancelled.bin", Data: frame(FrameJobResult, EncodeJobResult(JobResult{
			ID: 9, Err: "cancelled"}))},
		{Name: "valid-jobcancel.bin", Data: frame(FrameJobCancel, EncodeJobCancel(JobCancel{ID: 9}))},
		{Name: "corrupt-empty.bin", Data: []byte{}},
		{Name: "corrupt-zero-type.bin", Data: []byte{0x00, 0x00}},
		{Name: "corrupt-unknown-type.bin", Data: []byte{0xEE, 0x00}},
		{Name: "corrupt-unterminated-length.bin", Data: []byte{byte(FrameRun), 0xFF}},
		{Name: "corrupt-oversized-length.bin", Data: oversized},
		{Name: "corrupt-truncated-hello.bin", Data: hello[:len(hello)-2]},
		{Name: "corrupt-truncated-assign.bin", Data: assign[:len(assign)/2]},
		{Name: "corrupt-frame-trailing.bin", Data: append(append([]byte(nil), run...), 0xAB)},
		{Name: "corrupt-hello-magic.bin", Data: frame(FrameHello, helloWith(0xBADC0DE, ProtocolVersion))},
		{Name: "corrupt-hello-version.bin", Data: frame(FrameHello, helloWith(helloMagic, ProtocolVersion+9))},
		{Name: "corrupt-hello-v6.bin", Data: frame(FrameHello, helloWith(helloMagic, 6))},
		{Name: "corrupt-hello-v7.bin", Data: frame(FrameHello, helloWith(helloMagic, 7))},
		{Name: "corrupt-hello-v8.bin", Data: frame(FrameHello, helloWith(helloMagic, 8))},
		{Name: "corrupt-hello-v9.bin", Data: frame(FrameHello, helloWith(helloMagic, 9))},
		{Name: "corrupt-hello-v10.bin", Data: frame(FrameHello, helloWith(helloMagic, 10))},
		{Name: "corrupt-hello-v11.bin", Data: frame(FrameHello, helloWith(helloMagic, 11))},
		{Name: "corrupt-hello-v12.bin", Data: frame(FrameHello, helloWith(helloMagic, 12))},
		{Name: "corrupt-hello-v13.bin", Data: frame(FrameHello, helloWith(helloMagic, 13))},
		{Name: "corrupt-hello-v14.bin", Data: frame(FrameHello, helloWith(helloMagic, 14))},
		{Name: "corrupt-hello-payload-trailing.bin",
			Data: frame(FrameHello, append(encodeHello(), 0x00))},
		{Name: "corrupt-assign-payload-trailing.bin",
			Data: frame(FrameAssign, append(encodeAssign(seedAssignment()), 0x7F))},
		{Name: "corrupt-assign-forged-count.bin",
			Data: frame(FrameAssign, forgedAssignCount())},
		{Name: "corrupt-run-payload-trailing.bin",
			Data: frame(FrameRun, append(encodeRun(mapreduce.Run{Task: 1, Seg: []byte{1}}), 0x01))},
		{Name: "corrupt-run-truncated-seg.bin",
			Data: frame(FrameRun, encodeRun(mapreduce.Run{Task: 1, Seg: []byte{1, 2, 3}})[:5])},
		{Name: "corrupt-mapdone-forged-parts.bin",
			Data: frame(FrameMapDone, forgedMapDoneParts())},
		{Name: "corrupt-mapdone-trailing.bin",
			Data: frame(FrameMapDone, append(encodeMapDone(&mapDone{emitted: 1, logical: 1}), 0x00))},
		{Name: "corrupt-error-truncated.bin",
			Data: frame(FrameError, encodeError("mapper: boom")[:4])},
		{Name: "corrupt-error-trailing.bin",
			Data: frame(FrameError, append(encodeError("mapper: boom"), 0x00))},
		{Name: "corrupt-spans-forged-count.bin",
			Data: frame(FrameSpans, binary.AppendUvarint(nil, maxSpans+1))},
		{Name: "corrupt-spans-unknown-attr.bin",
			Data: frame(FrameSpans, forgedSpanKey(true))},
		{Name: "corrupt-spans-unknown-tag.bin",
			Data: frame(FrameSpans, forgedSpanKey(false))},
		{Name: "corrupt-assign-forged-fault.bin",
			Data: frame(FrameAssign, encodeAssign(forgedFaultAssignment()))},
		{Name: "corrupt-assign-forged-fault-count.bin",
			Data: frame(FrameAssign, forgedAssignFaultCount())},
		{Name: "corrupt-assign-truncated-digest.bin",
			Data: frame(FrameAssign, forgedAssignDigest())},
		{Name: "corrupt-jobsubmit-trailing.bin",
			Data: frame(FrameJobSubmit, append(EncodeJobSubmit(JobSubmit{
				Tenant: "acme", Query: "G1", Dataset: "github"}), 0x01))},
		{Name: "corrupt-jobsubmit-oversized-tenant.bin",
			Data: frame(FrameJobSubmit, EncodeJobSubmit(JobSubmit{
				Tenant: strings.Repeat("t", maxServeString+1), Query: "G1", Dataset: "github"}))},
		{Name: "corrupt-jobsubmit-forged-length.bin",
			Data: frame(FrameJobSubmit, forgedJobSubmitLength())},
		{Name: "corrupt-jobaccept-trailing.bin",
			Data: frame(FrameJobAccept, append(EncodeJobAccept(JobAccept{ID: 9, OK: true}), 0x00))},
		{Name: "corrupt-jobupdate-truncated.bin",
			Data: frame(FrameJobUpdate, EncodeJobUpdate(JobUpdate{ID: 9, Seq: 1})[:4])},
		{Name: "corrupt-jobresult-oversized-err.bin",
			Data: frame(FrameJobResult, EncodeJobResult(JobResult{
				ID: 9, Err: strings.Repeat("e", maxServeString+1)}))},
		{Name: "corrupt-jobcancel-trailing.bin",
			Data: frame(FrameJobCancel, append(EncodeJobCancel(JobCancel{ID: 9}), 0xFF))},
	}
	for i, f := range outOfRangeFaults {
		a := seedAssignment()
		a.faults = mapreduce.AttemptFaults{f}
		seeds = append(seeds, fuzzseed.Seed{Name: fmt.Sprintf("corrupt-assign-fault-range-%d.bin", i),
			Data: frame(FrameAssign, encodeAssign(a))})
	}
	// Protocol v8 retired the frame types past job_cancel: a v7 peer's
	// worker-to-worker frames and its job frames, numbered 12 to 18, are
	// unknown types now.
	for t := frameTypeMax + 1; t <= 18; t++ {
		seeds = append(seeds, fuzzseed.Seed{Name: fmt.Sprintf("corrupt-retired-type-%d.bin", t),
			Data: []byte{byte(t), 0x00}})
	}
	return seeds
}

// outOfRangeFaults are faults no plan arms: an unknown kind, a negative
// ordinal, a delay past maxFaultDelay.
var outOfRangeFaults = []mapreduce.Fault{
	{Point: mapreduce.PointMapStart, Kind: mapreduce.FaultKind(9)},
	{Point: mapreduce.PointMapMid, Kind: mapreduce.KindKill, At: -1},
	{Point: mapreduce.PointMapEmit, Kind: mapreduce.KindDelay, Delay: time.Hour},
}

// forgedJobSubmitLength claims a huge tenant-string length with no
// string data behind it.
func forgedJobSubmitLength() []byte {
	e := wire.NewEncoder(8)
	e.Uvarint(1 << 30) // forged tenant length
	return e.Bytes()
}

// forgedFaultAssignment carries a fault at a point no plan has.
func forgedFaultAssignment() *assignment {
	a := seedAssignment()
	a.faults = mapreduce.AttemptFaults{{Point: mapreduce.FaultPoint(0xEE), Kind: mapreduce.KindKill}}
	return a
}

// assignHead encodes an assignment's fields up to its fault count.
func assignHead() *wire.Encoder {
	e := wire.NewEncoder(32)
	appendJobSpec(e, JobSpec{Query: "G1", NumReducers: 3})
	e.Uvarint(0) // task
	e.Uvarint(0) // attempt
	return e
}

// forgedAssignFaultCount claims more faults than the plan has points.
func forgedAssignFaultCount() []byte {
	e := assignHead()
	e.Uvarint(uint64(len(mapreduce.AllFaultPoints()) + 1)) // forged fault count
	return e.Bytes()
}

// forgedAssignDigest ends inside the segment digest's second lane — the
// length of a one-lane digest.
func forgedAssignDigest() []byte {
	e := assignHead()
	e.Uvarint(0)         // no faults
	e.Uvarint(0)         // segment ID
	e.Uint64(0xFEEDFACE) // lane 0
	e.Bool(false)        // digest-only, where lane 1 belongs
	return e.Bytes()
}

// forgedAssignCount claims a huge record count with no record data.
func forgedAssignCount() []byte {
	e := assignHead()
	e.Uvarint(0)                     // no faults
	e.Uvarint(0)                     // segment ID
	e.Uint64(0)                      // segment digest, lane 0
	e.Uint64(0)                      // and lane 1
	e.Bool(true)                     // payload attached
	e.Uvarint(maxSegmentRecords + 1) // forged record count
	return e.Bytes()
}

// forgedSpanKey is one span whose attribute key (attr) or tag key is no
// declared key.
func forgedSpanKey(attr bool) []byte {
	e := wire.NewEncoder(16)
	e.Uvarint(1)
	e.String(obs.KindMapExec)
	e.String("exec-0")
	e.Varint(1)
	e.Varint(2)
	if attr {
		e.Uvarint(1) // one attribute
		e.Byte(0xEE) // no such key
		e.Varint(7)
		e.Uvarint(0) // no tags
	} else {
		e.Uvarint(0) // no attributes
		e.Uvarint(1) // one tag
		e.Byte(0xEE) // no such key
		e.String("x")
	}
	return e.Bytes()
}

// forgedMapDoneParts is a map_done whose fields are followed by a
// forged per-partition count, past the cap v13 decoded it under: v14
// ships one logical total, so the count is trailing bytes.
func forgedMapDoneParts() []byte {
	e := wire.NewEncoder(16)
	e.Varint(0)
	e.Varint(0)
	e.Varint(0)
	e.Varint(0)
	e.Uvarint(1<<16 + 1)
	return e.Bytes()
}

// decodeSeedFrame fully decodes a single-frame seed: framing first,
// then the type's payload codec, rejecting stream leftovers. This is
// the acceptance predicate the corpus assertions and the corruption
// test share.
func decodeSeedFrame(data []byte) error {
	f, rest, err := DecodeFrame(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errTrailingSeed
	}
	switch f.Type {
	case FrameHello:
		err = decodeHello(f.Payload)
	case FrameAssign:
		_, err = decodeAssign(f.Payload)
	case FrameRun:
		_, err = decodeRun(f.Payload)
	case FrameSpans:
		_, err = decodeSpans(f.Payload)
	case FrameMapDone:
		_, err = decodeMapDone(f.Payload)
	case FrameError:
		_, err = decodeError(f.Payload)
	case FrameJobSubmit:
		_, err = DecodeJobSubmit(f.Payload)
	case FrameJobAccept:
		_, err = DecodeJobAccept(f.Payload)
	case FrameJobUpdate:
		_, err = DecodeJobUpdate(f.Payload)
	case FrameJobResult:
		_, err = DecodeJobResult(f.Payload)
	case FrameJobCancel:
		_, err = DecodeJobCancel(f.Payload)
	}
	return err
}

var errTrailingSeed = bytes.ErrTooLarge // any non-nil sentinel; message unused

// TestUpdateFrameFuzzSeeds regenerates the committed corpus when run
// with -update-fuzz-seeds; otherwise it only checks the generator still
// produces every class.
func TestUpdateFrameFuzzSeeds(t *testing.T) {
	corpus := frameSeedCorpus()
	if !*updateFuzzSeeds {
		t.Skipf("generator healthy (%d seeds); pass -update-fuzz-seeds to rewrite testdata/fuzz-seeds/frames", len(corpus))
	}
	if err := fuzzseed.Update("frames", corpus); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzSeedFrameCorpus is the regression net over the committed
// corpus: every corrupt-* seed must be rejected and every valid-* seed
// accepted, independent of how the seed was built.
func TestFuzzSeedFrameCorpus(t *testing.T) {
	seeds, err := fuzzseed.Load("frames")
	if err != nil {
		t.Fatal(err)
	}
	var valid, corrupt int
	for _, s := range seeds {
		err := decodeSeedFrame(s.Data)
		switch {
		case strings.HasPrefix(s.Name, "corrupt-"):
			corrupt++
			if err == nil {
				t.Errorf("%s: corrupt seed accepted", s.Name)
			}
		case strings.HasPrefix(s.Name, "valid-"):
			valid++
			if err != nil {
				t.Errorf("%s: valid seed rejected: %v", s.Name, err)
			}
		default:
			t.Errorf("%s: seed name must start with valid- or corrupt-", s.Name)
		}
	}
	if valid < 16 || corrupt < 49 {
		t.Fatalf("corpus too small: %d valid / %d corrupt seeds", valid, corrupt)
	}
}

// FuzzFrameDecode feeds the frame decoder arbitrary bytes. Contract:
// malformed input — truncation anywhere, unknown types, oversized or
// unterminated lengths, garbage payloads — returns an error, never
// panics and never over-allocates; an accepted frame must survive a
// re-encode/re-decode round trip; and every payload codec must be
// total on whatever payload the framing layer hands it.
func FuzzFrameDecode(f *testing.F) {
	seeds, err := fuzzseed.Load("frames")
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s.Data)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		fr, rest, err := DecodeFrame(in)
		if err != nil {
			return
		}
		if len(fr.Payload)+len(rest) > len(in) {
			t.Fatalf("decoded more bytes than supplied: %d payload + %d rest > %d input",
				len(fr.Payload), len(rest), len(in))
		}
		// Round trip: re-framing the decoded frame must decode back to
		// the identical frame with nothing left over.
		re := AppendFrame(nil, fr.Type, fr.Payload)
		fr2, rest2, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if len(rest2) != 0 || fr2.Type != fr.Type || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("frame round trip diverged: %v/%d bytes vs %v/%d bytes (+%d rest)",
				fr.Type, len(fr.Payload), fr2.Type, len(fr2.Payload), len(rest2))
		}
		// Payload codecs must be total: errors fine, panics never. Run
		// the payload through every decoder, not just its own type's —
		// a desynchronized stream can hand any bytes to any of them.
		_ = decodeHello(fr.Payload)
		_, _ = decodeAssign(fr.Payload)
		_, _ = decodeRun(fr.Payload)
		_, _ = decodeSpans(fr.Payload)
		_, _ = decodeMapDone(fr.Payload)
		_, _ = decodeError(fr.Payload)
		_, _ = DecodeJobSubmit(fr.Payload)
		_, _ = DecodeJobAccept(fr.Payload)
		_, _ = DecodeJobUpdate(fr.Payload)
		_, _ = DecodeJobResult(fr.Payload)
		_, _ = DecodeJobCancel(fr.Payload)
	})
}

// TestFrameDecodeRejectsCorruption pins the specific corruption classes
// the satellite contract names: truncation at every byte of a genuine
// frame, a bad protocol version, an oversized declared length, and
// trailing garbage after a payload must all error — never panic, never
// silently succeed.
func TestFrameDecodeRejectsCorruption(t *testing.T) {
	for _, s := range frameSeedCorpus() {
		if !strings.HasPrefix(s.Name, "valid-") {
			continue
		}
		// Every strict prefix of a single well-formed frame is truncated
		// somewhere — type, length varint, or payload — and must error.
		for cut := 0; cut < len(s.Data); cut++ {
			if _, _, err := DecodeFrame(s.Data[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d/%d bytes accepted", s.Name, cut, len(s.Data))
			}
		}
	}

	for _, v := range []uint64{ProtocolVersion + 1, ProtocolVersion - 1} {
		if err := decodeHello(helloWith(helloMagic, v)); err == nil || !strings.Contains(err.Error(), "not supported") {
			t.Errorf("hello from a v%d peer: %v, want the version error", v, err)
		}
	}
	// Version 4 is the last whose assignments carried a columnar
	// payload, version 5 the last whose runs held summary bundles only —
	// it would misread a one-event group's event as an empty summary
	// list — version 6 the last with three ad-hoc fault fields, version 7
	// the last with the worker-to-worker frames and a one-lane segment
	// digest, version 8 the last whose event bundles held one event and
	// no count, version 9 the last whose job spec carried a combiner
	// flag, version 12 the last whose job spec carried a compress flag,
	// and version 13 the last whose map_done carried record and input
	// counts and a per-partition logical size; peers still speaking any
	// must be turned away at hello.
	for _, v := range []uint64{4, 5, 6, 7, 8, 9, 12, 13} {
		if err := decodeHello(helloWith(helloMagic, v)); err == nil || !strings.Contains(err.Error(), "not supported") {
			t.Errorf("hello from a v%d peer: %v, want the version error", v, err)
		}
	}
	if err := decodeHello(helloWith(0xDEAD, ProtocolVersion)); err == nil {
		t.Error("bad hello magic accepted")
	}
	if err := decodeHello(append(encodeHello(), 0x00)); err == nil {
		t.Error("trailing garbage after hello accepted")
	}

	oversized := append([]byte{byte(FrameRun)}, binary.AppendUvarint(nil, maxFrameLen+1)...)
	if _, _, err := DecodeFrame(oversized); err == nil {
		t.Error("oversized declared length accepted")
	}

	if _, err := decodeAssign(append(encodeAssign(seedAssignment()), 0x7F)); err == nil {
		t.Error("trailing garbage after assignment accepted")
	}
	if _, err := decodeRun(append(encodeRun(mapreduce.Run{Task: 1, Seg: []byte{1}}), 0x01)); err == nil {
		t.Error("trailing garbage after run accepted")
	}
	if _, err := decodeAssign(forgedAssignCount()); err == nil {
		t.Error("forged record count accepted")
	}
	if _, err := decodeMapDone(forgedMapDoneParts()); err == nil {
		t.Error("a per-partition count after map_done's fields accepted")
	}

	if _, err := decodeAssign(encodeAssign(forgedFaultAssignment())); err == nil {
		t.Error("fault at an unknown point accepted")
	}
	for _, f := range outOfRangeFaults {
		a := seedAssignment()
		a.faults = mapreduce.AttemptFaults{f}
		if _, err := decodeAssign(encodeAssign(a)); err == nil {
			t.Errorf("out-of-range fault %+v accepted", f)
		}
	}
	if _, err := decodeAssign(forgedAssignFaultCount()); err == nil {
		t.Error("forged fault count accepted")
	}
	if _, err := decodeAssign(forgedAssignDigest()); err == nil {
		t.Error("one-lane segment digest accepted")
	}
	if _, err := DecodeJobSubmit(append(EncodeJobSubmit(JobSubmit{Tenant: "t", Query: "q", Dataset: "d"}), 0x01)); err == nil {
		t.Error("trailing garbage after job submit accepted")
	}
	if _, err := DecodeJobSubmit(EncodeJobSubmit(JobSubmit{
		Tenant: strings.Repeat("t", maxServeString+1), Query: "q", Dataset: "d"})); err == nil {
		t.Error("oversized job submit tenant accepted")
	}
	if _, err := DecodeJobSubmit(forgedJobSubmitLength()); err == nil {
		t.Error("forged job submit string length accepted")
	}
	if _, err := DecodeJobAccept(append(EncodeJobAccept(JobAccept{ID: 1, OK: true}), 0x00)); err == nil {
		t.Error("trailing garbage after job accept accepted")
	}
	if _, err := DecodeJobUpdate(EncodeJobUpdate(JobUpdate{ID: 1, Seq: 1, Digest: 1})[:4]); err == nil {
		t.Error("truncated job update accepted")
	}
	if _, err := DecodeJobResult(EncodeJobResult(JobResult{
		ID: 1, Err: strings.Repeat("e", maxServeString+1)})); err == nil {
		t.Error("oversized job result error accepted")
	}
	if _, err := DecodeJobCancel(append(EncodeJobCancel(JobCancel{ID: 1}), 0xFF)); err == nil {
		t.Error("trailing garbage after job cancel accepted")
	}
}

// TestAssignRoundTrip pins the assignment codec: metadata, both lanes
// of the segment digest, and records — or, digest-only, no records.
func TestAssignRoundTrip(t *testing.T) {
	a := seedAssignment()
	got, err := decodeAssign(encodeAssign(a))
	if err != nil {
		t.Fatal(err)
	}
	if got.spec != a.spec || got.task != a.task || got.attempt != a.attempt ||
		!slices.Equal(got.faults, a.faults) || got.segDigest != a.segDigest || got.seg.ID != a.seg.ID {
		t.Fatalf("assignment metadata diverged: %+v vs %+v", got, a)
	}
	if len(got.seg.Records) != len(a.seg.Records) {
		t.Fatalf("record count %d, want %d", len(got.seg.Records), len(a.seg.Records))
	}
	for i := range a.seg.Records {
		if !bytes.Equal(got.seg.Records[i], a.seg.Records[i]) {
			t.Fatalf("record %d diverged", i)
		}
	}

	a.seg = nil // digest-only form
	if got, err = decodeAssign(encodeAssign(a)); err != nil {
		t.Fatal(err)
	}
	if got.seg != nil || got.segDigest != a.segDigest || got.segID != a.segID {
		t.Fatalf("digest-only assignment diverged: %+v", got)
	}
}

// TestJobFrameRoundTrips pins the five serve job-frame codecs: every
// field survives an encode/decode round trip, including the rejected
// and cancelled forms.
func TestJobFrameRoundTrips(t *testing.T) {
	sub := JobSubmit{Tenant: "acme", Query: "R4", Dataset: "redshift", Tail: true, TailEvery: 3}
	if got, err := DecodeJobSubmit(EncodeJobSubmit(sub)); err != nil || got != sub {
		t.Fatalf("job submit diverged: %+v vs %+v (%v)", got, sub, err)
	}
	for _, acc := range []JobAccept{
		{ID: 42, OK: true, QueuePos: 7},
		{OK: false, Reason: "unknown query Z9"},
	} {
		if got, err := DecodeJobAccept(EncodeJobAccept(acc)); err != nil || got != acc {
			t.Fatalf("job accept diverged: %+v vs %+v (%v)", got, acc, err)
		}
	}
	u := JobUpdate{ID: 42, Seq: 9, Digest: 0xCE4386EA43DC8579, NumResults: 40,
		Segments: 6, CacheHits: 4, MappedSegments: 2}
	if got, err := DecodeJobUpdate(EncodeJobUpdate(u)); err != nil || got != u {
		t.Fatalf("job update diverged: %+v vs %+v (%v)", got, u, err)
	}
	for _, r := range []JobResult{
		{ID: 42, Digest: 0xA0A6156645A7A793, NumResults: 53, Segments: 6, CacheHits: 6, Updates: 2},
		{ID: 43, Err: "cancelled", Updates: 5},
	} {
		if got, err := DecodeJobResult(EncodeJobResult(r)); err != nil || got != r {
			t.Fatalf("job result diverged: %+v vs %+v (%v)", got, r, err)
		}
	}
	if got, err := DecodeJobCancel(EncodeJobCancel(JobCancel{ID: 42})); err != nil || got.ID != 42 {
		t.Fatalf("job cancel diverged: %+v (%v)", got, err)
	}
}

// TestSpansRoundTrip pins the spans codec, attrs and tags included: the
// seed spans, and one span that carries every declared attribute and
// tag key — found by asking each number whether it is declared — whose
// JSONL line lists them in name order.
func TestSpansRoundTrip(t *testing.T) {
	every := &obs.Span{Kind: obs.KindMapExec, Name: "every-key", Start: 1, End: 2}
	var attrs, tags []string
	for k := range 256 {
		if a := obs.AttrKey(k); a.Valid() {
			every.SetAttr(a, int64(k))
			attrs = append(attrs, a.String())
		}
		if g := obs.TagKey(k); g.Valid() {
			every.SetTag(g, "1")
			tags = append(tags, g.String())
		}
	}
	in := append(seedSpans(), every)
	got, err := decodeSpans(encodeSpans(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("span count %d, want %d", len(got), len(in))
	}
	for i := range in {
		a, b := in[i], got[i]
		if *a != *b {
			t.Fatalf("span %d diverged: %+v vs %+v", i, a, b)
		}
	}

	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	sink.Emit(got[len(got)-1])
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	slices.Sort(attrs)
	slices.Sort(tags)
	line, at := buf.String(), -1
	for _, name := range append(attrs, tags...) {
		i := strings.Index(line, `"`+name+`":`)
		if i <= at {
			t.Fatalf("key %q missing or out of name order in %s", name, line)
		}
		at = i
	}
}
