package analysis

// secretflow: the interprocedural information-flow rule. Where the boundary
// rule approximates "trusted code must not leak" by signature shape, this one
// tracks actual values: anything derived from the source catalog in
// summary.go (the platform secret, EGETKEY/DeriveKey results, unsealed blob
// plaintext) must not reach a kernel- or host-visible sink (IPC sends, raw
// DRAM writes, ocall arguments, switchless ones included, trace/log output)
// unless it passed through a Seal/Encrypt/MAC sanitizer first. Flows are
// tracked across calls via the param→sink and return→source summaries, so
// the finding's message reconstructs the full call chain from the secret's
// birth to the sink.
import "strings"

// SecretFlow is the interprocedural taint rule.
var SecretFlow = &Analyzer{
	Name: "secretflow",
	Doc:  "secrets (seal keys, the REPORT MAC key, unsealed plaintext) must not reach kernel/host-visible sinks unsealed",
	RunProgram: func(pass *ProgramPass) {
		for _, n := range pass.Prog.nodes {
			if n.taint == nil {
				continue
			}
			for _, f := range n.taint.localFlows {
				var trace strings.Builder
				for _, step := range f.via {
					trace.WriteString(" -> ")
					trace.WriteString(step.fn.name)
					trace.WriteString(" (")
					trace.WriteString(pass.Posn(step.pos))
					trace.WriteString(")")
				}
				born := ""
				if f.source.fn != n {
					born = " born in " + f.source.fn.name + " at " + pass.Posn(f.source.pos) + ","
				} else {
					born = " born at " + pass.Posn(f.source.pos) + ","
				}
				pass.Reportf(f.pos, "secretflow/leak",
					"%s,%s reaches %s here%s; seal, encrypt, or MAC it before it leaves the trusted boundary",
					f.source.desc, born, f.desc, trace.String())
			}
		}
	},
}
