package sdk

// Staged reports what the staging stacks of h's cores hold: argument bytes
// and Env frames. Both are zero whenever no call runs.
func Staged(h *Host) (args, frames int) {
	for i := range h.stacks {
		args += h.stacks[i].top
		frames += h.stacks[i].depth
	}
	return args, frames
}
