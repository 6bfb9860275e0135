package vm

// TraceClosures reports, for each compiled trace in compilation order, how
// many closures one full iteration calls.
func (v *VM) TraceClosures() []int {
	n := make([]int, len(v.traces))
	for i, t := range v.traces {
		n[i] = len(t.steps)
	}
	return n
}
