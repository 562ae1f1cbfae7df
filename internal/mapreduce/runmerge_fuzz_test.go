package mapreduce

import (
	"slices"
	"strings"
	"testing"
)

// FuzzKeyPrefixOrder holds sortRun's prefix-first comparison to the
// order it stands for: (strings.Compare on the key, recordID, emit
// order). The three fuzzed keys are mixed with their own truncations and
// NUL extensions — keys shorter than the prefix, keys equal through it,
// keys the zero padding cannot tell apart — and every key is emitted
// twice under one recordID, so ties must come out in emit order.
func FuzzKeyPrefixOrder(f *testing.F) {
	f.Add("", "a", "ab")
	f.Add("a", "a\x00", "a\x00\x00")            // padding hides the NULs
	f.Add("abcdefg", "abcdefg\x00", "abcdefgh") // the same, at the prefix's edge
	f.Add("user1234a", "user1234b", "user1234") // equal prefixes, order past them
	f.Add("héllo", "hello", "h\xffllo")         // bytes above 0x7f order unsigned
	f.Add("\x00", "", "\x00\x00\x00\x00\x00\x00\x00\x00\x00")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		var keys []string
		for _, k := range []string{a, b, c} {
			keys = append(keys, k, k+"\x00", k[:len(k)/2], k[:min(len(k), 8)], k[:min(len(k), 7)])
		}
		var recs []kvRec
		for round := 0; round < 2; round++ {
			for i, k := range keys {
				recs = append(recs, kvRec{key: k, recordID: int64(i % 3), seq: int64(len(recs))})
			}
		}
		want := slices.Clone(recs)
		slices.SortStableFunc(want, func(x, y kvRec) int {
			if c := strings.Compare(x.key, y.key); c != 0 {
				return c
			}
			return int(x.recordID - y.recordID) // stable: ties keep emit order
		})
		sortRun(recs)
		for i := range recs {
			if recs[i].key != want[i].key || recs[i].recordID != want[i].recordID || recs[i].seq != want[i].seq {
				t.Fatalf("position %d: sortRun has (%q, %d, emit %d), the plain order (%q, %d, emit %d)", i,
					recs[i].key, recs[i].recordID, recs[i].seq, want[i].key, want[i].recordID, want[i].seq)
			}
		}
		for _, k := range keys {
			for _, l := range keys {
				if pk, pl := keyPrefix(k), keyPrefix(l); pk != pl && (pk < pl) != (k < l) {
					t.Fatalf("prefixes of %q and %q order %x, %x against the keys", k, l, pk, pl)
				}
			}
		}
	})
}
