package asmspec

import "testing"

func TestAddBitIdentical(t *testing.T) {}

func FuzzAddEquivalence(f *testing.F) {}

func BenchmarkAdd(b *testing.B) {}

// scanSpec is the body scan replaced, kept here as its specification.
func scanSpec(d []byte) int { return len(d) }

type oracle struct{}

func (o *oracle) walk() {}

func FuzzScan(f *testing.F) {}

func TestWalkBitIdentical(t *testing.T) {}
