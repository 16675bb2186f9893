// Package cpu probes, once, the CPU features that select the assembly
// bodies of the kernels in internal/matrix and internal/service. It has
// no dependencies, so any package may import it; only the amd64 build
// without the purego tag has anything to probe.
package cpu
