package sym

// Helpers over State values shared by the engine and summaries.

// cloneState builds a deep copy of src using the state factory.
func cloneState[S State](newState func() S, src S) S {
	dst := newState()
	df, sf := dst.Fields(), src.Fields()
	if len(df) != len(sf) {
		fail(ErrStateMismatch)
	}
	for i := range df {
		df[i].CopyFrom(sf[i])
	}
	return dst
}

// freshSymbolic builds a state whose every field is a fresh unconstrained
// symbolic input; field indices identify the variables.
func freshSymbolic[S State](newState func() S) S {
	s := newState()
	for i, f := range s.Fields() {
		f.ResetSymbolic(i)
	}
	return s
}
