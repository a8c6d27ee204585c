// Fixture: a package outside spanpair's scope may hand SpanRefs to its
// callers, where an in-function End requirement would be wrong. Nothing
// here may produce a finding.
package channel

import "fix/internal/trace"

func HelperReturnsSpan(rec *trace.Recorder) trace.SpanRef {
	return rec.BeginSpan(trace.NoCore, trace.NoEID, "chan_send")
}
