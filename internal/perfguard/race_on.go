//go:build race

package perfguard

// Race is whether the race detector is on. It slows a guard's two bodies
// unevenly where one is assembly or map-heavy and the other is not, so
// the guards it skews skip or log instead of holding their floors:
// TestQDigestGuard skips (the map-backed oracle and the node array read
// ≈ 1.7× where the plain build reads ≈ 5×), TestEigAboveGuard logs its
// ratio (the detector instruments EigAbove's Go loops and not the kernels
// EigSymWork leans on: ≈ 1.4× for ≈ 2.2×), TestIngestJSONGuard logs its
// four scan rows (both scans' byte reads are instrumented alike: ≈ 1.03×
// for ≈ 1.2×) and TestWireStreamGuard logs its ack and write counts (the
// site's producer slows more than the listener, which then rightly acks
// between most writes).
const Race = true
