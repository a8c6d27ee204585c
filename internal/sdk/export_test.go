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

// MaxKeptStack is the largest staging buffer a core keeps between calls.
const MaxKeptStack = maxKeptStack

// LargestStack reports the largest staging buffer any core of h holds.
func LargestStack(h *Host) int {
	n := 0
	for i := range h.stacks {
		n = max(n, len(h.stacks[i].buf))
	}
	return n
}
