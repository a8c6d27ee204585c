// Fixture: malformed allow directives are findings themselves, under the
// non-suppressible rule nescheck/bad-directive. The wants use the block
// spelling because the line's trailing line-comment IS the directive under
// test.
package sgx

func Unjustified() {
	/* want "nescheck/bad-directive: .*needs a reason" */ //nescheck:allow determinism
	_ = 0
}

func BadFamily() {
	/* want "nescheck/bad-directive: .*not a rule family name" */ //nescheck:allow Determinism! because
	_ = 0
}

func Empty() {
	/* want "nescheck/bad-directive: .*needs a rule family and a reason" */ //nescheck:allow
	_ = 0
}
