package trace

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// This file implements the log₂-bucketed latency histograms the observability
// layer keeps for composite operations — the distributions behind the paper's
// Table II averages. A histogram costs one atomic add per observation beyond
// the plain counter it replaces, so it stays on even when event logging and
// attribution are disabled.

// Op enumerates the composite operations with latency histograms. Each is a
// multi-event sequence whose cycle cost varies per invocation (unlike the
// fixed per-event costs), so a distribution is more informative than a sum.
type Op int

const (
	OpECall           Op = iota // full ecall round trip: EENTER .. body .. EEXIT
	OpOCall                     // ocall round trip: EEXIT .. host fn .. resuming EENTER
	OpNECall                    // n_ecall round trip: NEENTER .. body .. NEEXIT
	OpNOCall                    // n_ocall round trip (either Figure-5 direction)
	OpPageWalk                  // TLB miss: page walk + Figure-2 validation
	OpNestedWalk                // TLB miss resolved via the Figure-6 outer-enclave branch
	OpEWB                       // page eviction: seal + LLC flush + free
	OpELD                       // page reload: open + EPC alloc + LLC fill
	OpSwitchlessOCall           // ocall served through the switchless ring (no transition)

	numOps
)

// NumOps is the number of defined composite operations.
const NumOps = int(numOps)

var opNames = [...]string{
	OpECall:           "ecall",
	OpOCall:           "ocall",
	OpNECall:          "n_ecall",
	OpNOCall:          "n_ocall",
	OpPageWalk:        "page_walk",
	OpNestedWalk:      "nested_page_walk",
	OpEWB:             "ewb",
	OpELD:             "eld",
	OpSwitchlessOCall: "switchless_ocall",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// histBuckets is the number of log₂ buckets: bucket i holds values whose bit
// length is i, i.e. [2^(i-1), 2^i). Bucket 0 holds zero (and clamped
// negatives); 64 covers the full int64 range.
const histBuckets = 65

// Histogram is a log₂-bucketed latency histogram safe for concurrent use.
// The zero value is ready.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketBound returns the inclusive upper bound of bucket i
// (math.MaxInt64 for the last bucket).
func BucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return (1 << i) - 1
}

// Observe adds one sample. Negative samples clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the average sample, 0 with no samples.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Buckets [histBuckets]int64
}

// Mean returns the average sample, 0 with no samples.
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the upper bound of the bucket containing the q-quantile
// (0 < q <= 1) — an over-estimate by at most 2x, the bucket resolution.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, b := range s.Buckets {
		cum += b
		if cum >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(histBuckets - 1)
}

// NonZeroBuckets returns bucket upper bound -> count for occupied buckets,
// the compact form persisted into bench result JSON.
func (s *HistSnapshot) NonZeroBuckets() map[string]int64 {
	out := make(map[string]int64)
	for i, b := range s.Buckets {
		if b != 0 {
			out[fmt.Sprintf("%d", BucketBound(i))] = b
		}
	}
	return out
}
