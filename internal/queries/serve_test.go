package queries

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/serve"
	"repro/internal/wire"
)

// encodeStates is every state of the prefix in canonical form, by key.
func (p *servePrefix[S, E, R]) encodeStates() []byte {
	keys := slices.Sorted(maps.Keys(p.ids))
	var enc wire.Encoder
	for _, key := range keys {
		enc.String(key)
		p.sts[p.ids[key]].Encode(&enc)
	}
	return enc.Bytes()
}

// TestServePrefixIsFrozen is the contract the prefix cache rests on: a
// frozen prefix is shared by pointer between the cache, concurrent jobs
// and tail sessions with no lock, so nothing a session does over it may
// write it. For every query (SymPred's shared assumption lists, SymVector
// and SymIntVector's shared backing arrays included) eight sessions at
// once resume from one prefix and fold the remaining segments over it —
// as a job's overlay, as a tail's refresh loop that freezes as it goes,
// and as the remaining segments' event groups alone, each Update runs on
// a copy of a shared state — and read its result; -race sees a
// write the moment it happens, and the prefix's states encode to the
// same bytes afterwards.
func TestServePrefixIsFrozen(t *testing.T) {
	datasets := smallDatasets(8)
	for _, spec := range All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			run := serve.Lookup(spec.ID)
			bundles := segmentBundles(t, spec.ID, datasets[spec.Dataset])
			const k = 4
			// events: the event bundles of the segments after the prefix.
			var events []map[string][]byte
			for _, b := range bundles[k:] {
				e := maps.Clone(b)
				maps.DeleteFunc(e, func(_ string, v []byte) bool { return v[0] != 0 })
				events = append(events, e)
			}
			atPrefix, atEnd := sessionFold(t, run, bundles[:k]), sessionFold(t, run, bundles)
			atEvents := sessionFold(t, run, append(slices.Clone(bundles[:k]), events...))

			sess, err := run.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range bundles[:k] {
				if err := sess.Fold(b); err != nil {
					t.Fatal(err)
				}
			}
			prefix := sess.Freeze()
			frozen := prefix.(interface{ encodeStates() []byte })
			before := bytes.Clone(frozen.encodeStates())

			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					sess, err := run.NewSession()
					if err != nil {
						t.Error(err)
						return
					}
					sess.Resume(prefix)
					want := atEnd
					switch g % 3 {
					case 0: // a job's overlay
						for _, b := range bundles[k:] {
							if err := sess.Fold(b); err != nil {
								t.Error(err)
								return
							}
						}
					case 1: // a tail: result per refresh, freezing as it goes
						for i, b := range bundles[k:] {
							if err := sess.Fold(b); err != nil {
								t.Error(err)
								return
							}
							if _, err := sess.Result(); err != nil {
								t.Error(err)
								return
							}
							if i%2 == 0 {
								sess.Freeze()
							}
						}
					case 2: // the memoised result, then the events alone
						if got, _ := sess.Result(); got != atPrefix {
							t.Errorf("result over the prefix %+v, want %+v", got, atPrefix)
						}
						for _, b := range events {
							if err := sess.Fold(b); err != nil {
								t.Error(err)
								return
							}
						}
						want = atEvents
					}
					if got, _ := sess.Result(); got != want {
						t.Errorf("session %d: result %+v, want %+v", g, got, want)
					}
				}(g)
			}
			wg.Wait()
			if !bytes.Equal(before, frozen.encodeStates()) {
				t.Error("sessions over the frozen prefix changed its states")
			}
		})
	}
}

// TestServeStateOwnsItsVector: a session's states outlive every call,
// so none may view storage its fold site works in. On B3, user a's first
// segment folds a summary that fills its vector with sessions of two
// queries; its second is a group of
// events that push nothing, run on a spare that starts as a clipped copy
// of a's state and is committed as a's, so the container that held a's
// vector becomes a spare; user b's summary in the third segment is then
// concretized on that spare, one-query sessions. a's sessions must read
// as they were.
func TestServeStateOwnsItsVector(t *testing.T) {
	rec := func(ts int64, user string) []byte { return fmt.Appendf(nil, "%d\t%s\tg1\t1\tq", ts, user) }
	sessions := func(user string, from, queries int64) *mapreduce.Segment {
		seg := &mapreduce.Segment{}
		for i := int64(0); i < 20*queries; i++ {
			seg.Records = append(seg.Records, rec(from+1000*(i/queries)+10*(i%queries), user))
		}
		return seg
	}
	segs := []*mapreduce.Segment{
		sessions("a", 0, 2),
		{Records: [][]byte{rec(19020, "a"), rec(19030, "a"), rec(19040, "a")}},
		sessions("b", 30000, 1),
	}
	want, err := ByID("B3").Sequential(segs)
	if err != nil {
		t.Fatal(err)
	}
	bundles := segmentBundles(t, "B3", segs)
	if bundles[0]["a"][0] == 0 || bundles[1]["a"][0] != 0 || bundles[2]["b"][0] == 0 {
		t.Fatal("want a summary, an event group, then a summary")
	}
	if got := sessionFold(t, serve.Lookup("B3"), bundles); got.Digest != want.Digest || got.NumResults != want.NumResults {
		t.Errorf("session: digest %016x (%d results), sequential %016x (%d)",
			got.Digest, got.NumResults, want.Digest, want.NumResults)
	}
}
