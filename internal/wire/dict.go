package wire

// StringDict appends a length-prefixed string dictionary: entry count,
// then each entry length-prefixed. Decoders reference entries by index,
// so a repeated string costs one varint per use instead of its bytes.
func (e *Encoder) StringDict(dict []string) {
	e.Uvarint(uint64(len(dict)))
	for _, s := range dict {
		e.String(s)
	}
}

// StringDict reads a dictionary written by Encoder.StringDict. The entry
// count is validated against maxEntries and the remaining input before
// allocation, each entry's length against the input. The entries are
// substrings of one string, the dictionary's one allocation beside its
// slice, so a caller that keeps one entry keeps the whole dictionary
// reachable.
func (d *Decoder) StringDict(maxEntries int) []string {
	n := d.Length(min(maxEntries, d.Remaining()))
	start := d.off
	for range n {
		d.bytesField("string")
	}
	if d.err != nil {
		return nil
	}
	// One pass validated the entries; the second reads them again from
	// a copy of their bytes, whose offsets are the input's.
	all, sub := string(d.buf[start:d.off]), Decoder{buf: d.buf[start:d.off]}
	dict := make([]string, n)
	for i := range dict {
		b := sub.bytesField("string")
		dict[i] = all[sub.off-len(b) : sub.off]
	}
	return dict
}
