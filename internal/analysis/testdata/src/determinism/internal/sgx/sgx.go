// Fixture: internal/sgx is replay-critical, so wall clock, global RNG, and
// order-sensitive map iteration are all findings here.
package sgx

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

func Tick() int64 {
	return time.Now().UnixNano() // want "determinism/wallclock: time.Now"
}

func Nap() {
	time.Sleep(time.Millisecond) // want "determinism/wallclock: time.Sleep"
}

func Jitter() int {
	return rand.Intn(8) // want "determinism/rand-global: rand.Intn"
}

func Dump(m map[int]string) {
	for k, v := range m { // want "determinism/map-order: .*fmt.Println output"
		fmt.Println(k, v)
	}
}

func Keys(m map[int]string) []int {
	var out []int
	for k := range m { // want "determinism/map-order: .*append to a slice declared outside the loop"
		out = append(out, k)
	}
	return out
}

func Join(m map[int]string) string {
	s := ""
	for _, v := range m { // want "determinism/map-order: .*string concatenation"
		s += v
	}
	return s
}

// SortedKeys is the sanctioned collect-then-sort idiom: clean.
func SortedKeys(m map[int]string) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Count only folds order-insensitive state: clean.
func Count(m map[int]string) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// Bench shows the escape hatch: an allowed, reasoned wall-clock read.
func Bench() int64 {
	//nescheck:allow determinism fixture exercises the reasoned escape hatch
	return time.Now().UnixNano()
}
