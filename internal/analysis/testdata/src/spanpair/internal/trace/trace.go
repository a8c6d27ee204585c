// Fixture stand-in for the span API: the path suffix internal/trace makes
// Recorder.BeginSpan and Recorder.BeginOp classify exactly like the real
// ones.
package trace

const (
	NoCore = -1
	NoEID  = 0
)

type Recorder struct{}

type SpanRef struct{ id uint64 }

func (r *Recorder) BeginSpan(core int, eid uint64, name string) SpanRef { return SpanRef{} }

func (s SpanRef) End()       {}
func (s SpanRef) ID() uint64 { return s.id }

type Op int

const (
	OpECall Op = iota
	OpPageWalk
	OpNestedWalk
)

type OpRef struct{ Op Op }

func (r *Recorder) BeginOp(op Op, core int, eid uint64, name string) OpRef { return OpRef{Op: op} }

func (o *OpRef) End() {}
