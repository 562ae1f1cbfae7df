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
// allocation; each entry's length is validated by String. One string is
// allocated per distinct entry — the decode-side win of dictionary
// encoding over per-record keys.
func (d *Decoder) StringDict(maxEntries int) []string {
	n := d.Length(min(maxEntries, d.Remaining()))
	if d.err != nil {
		return nil
	}
	dict := make([]string, n)
	for i := range dict {
		dict[i] = d.String()
		if d.err != nil {
			return nil
		}
	}
	return dict
}
