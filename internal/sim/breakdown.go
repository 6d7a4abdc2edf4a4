package sim

import "time"

// Category classifies where a transaction's execution time goes. The set
// mirrors the decomposition in the paper's Fig. 7.
type Category int

const (
	CatOther Category = iota
	CatDiskIO
	CatNetworkIO
	CatLocking
	CatLatching
	CatLogging
	CatCPU
	numCategories
)

var categoryNames = [numCategories]string{
	"other", "disk IO", "network IO", "locking", "latching", "logging", "cpu",
}

// String returns the category's display name.
func (c Category) String() string {
	if c < 0 || int(c) >= len(categoryNames) {
		return "unknown"
	}
	return categoryNames[c]
}

// Categories lists all categories in display order.
func Categories() []Category {
	out := make([]Category, numCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// Breakdown accumulates virtual time per category.
type Breakdown struct {
	buckets [numCategories]time.Duration
}

// Add accumulates d against cat.
func (b *Breakdown) Add(cat Category, d time.Duration) {
	if cat < 0 || cat >= numCategories {
		cat = CatOther
	}
	b.buckets[cat] += d
}

// Get returns the accumulated time for cat.
func (b *Breakdown) Get(cat Category) time.Duration { return b.buckets[cat] }

// Total returns the sum across all categories.
func (b *Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b.buckets {
		t += d
	}
	return t
}
