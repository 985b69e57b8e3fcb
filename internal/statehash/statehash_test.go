package statehash

import "testing"

func sumOf(words ...uint64) Sum {
	h := New()
	for _, w := range words {
		h.Add(w)
	}
	return h.Sum()
}

func TestSumDeterministic(t *testing.T) {
	a, b := sumOf(1, 2, 3, 1<<63), sumOf(1, 2, 3, 1<<63)
	if a != b {
		t.Fatalf("same stream, different sums: %v vs %v", a, b)
	}
	h := New()
	h.Add(42)
	if x, y := h.Sum128(); (Sum{x, y}) != h.Sum() {
		t.Fatal("Sum128 and Sum disagree")
	}
}

func TestSumOrderMatters(t *testing.T) {
	if sumOf(1, 2) == sumOf(2, 1) {
		t.Fatal("swapped words hash equal")
	}
	// A word of zero still advances the stream: the detector relies on
	// placeholder words to keep field positions aligned.
	if sumOf(0) == sumOf() || sumOf(0, 7) == sumOf(7) {
		t.Fatal("a zero word left the sum unchanged")
	}
}

func TestAddBool(t *testing.T) {
	yes, no := New(), New()
	yes.AddBool(true)
	no.AddBool(false)
	if yes.Sum() == no.Sum() {
		t.Fatal("AddBool(true) and AddBool(false) hash equal")
	}
	if yes.Sum() != sumOf(1) || no.Sum() != sumOf(0) {
		t.Fatal("AddBool is not the word 1 or 0")
	}
}
