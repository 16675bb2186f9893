# Developer entry points. CI runs the same steps (see .github/workflows).

GO ?= go

.PHONY: build test fma-count loc loc-tests symbols race bench-check perf-guard profile experiments fmt vet lint lint-findings e2e

# The cpuprofile tag builds distserve's profiling hook (cmd/distserve/
# cpuprofile.go), which no other build compiles: building it here keeps it
# from rotting.
build:
	$(GO) build ./...
	$(GO) build -tags cpuprofile -o /dev/null ./cmd/distserve

# Two legs, as in CI: the default build (on amd64 the assembly bodies of
# internal/matrix's kernels — gramRow and the row kernels of the P2 site
# step — where the CPU has AVX2) and the purego tag's portable bodies over
# the packages whose results depend on those kernels (cmd/distsite runs
# internal/core's site half in a deployment; internal/hh rides along so
# both protocols' replay tests see both legs). testdata/golden-*.ckpt must pass on both:
# that is the bodies' bit-identity at system level. A third leg builds for
# 386 and runs the frame codec and its two users there, the portable
# Gram body (its row offsets i·d + m) with the FD sketch over it, and the
# service, whose JSON digit walk reads unchecked and whose decoders do
# index math, with the item trackers behind its items route (internal/hh
# and internal/quantile, whose q-digest node ids fill 63 bits): a 32-bit
# int is where a length check or an index that multiplies wraps first.
# -short skips the wall-clock guards, which time the amd64 build. An arm64 vet type-checks the generic kernel bodies and
# the build tags on a second 64-bit architecture, one without the amd64
# assembly.
test:
	$(GO) test ./...
	$(GO) test -tags purego ./internal/matrix ./internal/core ./internal/sketch ./cmd/distsite ./internal/hh .
	GOARCH=386 $(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) test ./internal/frame ./internal/wire ./internal/wal
	GOARCH=386 $(GO) test -short ./internal/matrix ./internal/sketch ./internal/service ./internal/hh ./internal/quantile

# Fused multiply-adds in each numeric package, against a committed ceiling
# per architecture (ROADMAP item 15's first slices). Go may fuse x*y + z
# into one rounding on arm64, ppc64le, s390x and riscv64, never on amd64 or
# 386, so every fused op is a place where such a build can round apart from
# the amd64 one the goldens were written on. Each architecture's compiler
# listing is counted in its own mnemonics: F(N)M{ADD,SUB}D on arm64 and
# riscv64, F(N)M{ADD,SUB} on ppc64le and s390x. A count may fall (lower its
# ceiling here), a rise fails. A product whose rounding matters is written
# float64(x*y), which the compiler may not fuse.
FMA_CEILINGS = \
	arm64:matrix:22 arm64:core:2 arm64:sketch:0 arm64:hh:2 arm64:quantile:1 \
	riscv64:matrix:22 riscv64:core:2 riscv64:sketch:0 riscv64:hh:2 riscv64:quantile:1 \
	ppc64le:matrix:22 ppc64le:core:2 ppc64le:sketch:0 ppc64le:hh:1 ppc64le:quantile:1 \
	s390x:matrix:22 s390x:core:2 s390x:sketch:0 s390x:hh:1 s390x:quantile:1
fma-count:
	@set -e; for apc in $(FMA_CEILINGS); do \
		a=$${apc%%:*}; pc=$${apc#*:}; p=$${pc%%:*}; c=$${pc##*:}; \
		case $$a in arm64|riscv64) re='\bF(N)?M(ADD|SUB)D\b';; *) re='\bF(N)?M(ADD|SUB)\b';; esac; \
		out=$$(GOARCH=$$a $(GO) build -gcflags="repro/internal/$$p=-S" ./internal/$$p 2>&1) || { echo "$$out" >&2; exit 1; }; \
		n=$$(printf '%s\n' "$$out" | grep -cE "$$re" || true); \
		echo "internal/$$p: $$n fused multiply-adds on $$a (ceiling $$c)"; \
		if [ "$$n" -gt "$$c" ]; then echo "fma-count: internal/$$p rose above its $$a ceiling" >&2; exit 1; fi; \
	done

# Non-test Go outside bench/ and outside the analyzers' fixtures (sources
# under internal/analysis/testdata that only the analyzer tests load): the
# number ROADMAP's quality-of-design aim tracks.
loc:
	@git ls-files '*.go' | grep -v -e '^bench/' -e '^internal/analysis/testdata/' | grep -v '_test.go$$' | xargs cat | wc -l

# Test Go under the same exclusions: the count CHANGES entries quote and
# ROADMAP item 1(c)'s net-negative gate reads.
loc-tests:
	@git ls-files '*_test.go' | grep -v -e '^bench/' -e '^internal/analysis/testdata/' | xargs cat | wc -l

# The module's symbols (repro. for the facade, repro/... for the rest) that
# the two shipped daemons link, each binary's set sorted and de-duplicated
# from go tool nm (names only, so a layout shift does not show). A change
# that should leave the production code alone prints the same sets at the
# parent and at the change: diff the two.
symbols:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && for c in distserve distsite; do \
		$(GO) build -o "$$d/$$c" ./cmd/$$c || exit 1; \
		echo "== $$c"; \
		$(GO) tool nm "$$d/$$c" | sed -E 's/^ *[0-9a-f]* +[A-Za-z] +//' | grep -E '^repro[./]' | sort -u; \
	done

race:
	$(GO) test -race ./...

# bench/ is its own module (the repo's end-to-end benchmark, BENCHMARK.json)
# compiled against repro, internal/core and internal/service; `go build
# ./...` and `go test ./...` at the root see none of it. This keeps it
# building, its own tests passing and every workload running against the
# tree. CI runs exactly this target.
#
# The runs go through the command line, not TestSmokeSuite, and in full
# mode, not -smoke: the smoke phase is a fixed number of script periods
# sized for the PR 12 server, a run needs one whole 0.4 s window, and one
# workload after another has outrun it — http-json since ISSUE 19 (≈ 0.22 s),
# wire-stream since ISSUE 20 (≈ 0.6 s, one window at best), sharded-query
# since ISSUE 21 (0.5 s and one window at the parent, none after it), and
# durable-tenancy on any host a little faster than the one it was sized on
# (none in 4 of 4 runs, parent and change alike, on ISSUE 21's). bench/ is
# closed to a perf PR, so until ROADMAP item 4(a) sizes that phase by
# elapsed windows each workload takes a short full-mode run (--seconds 6:
# ≥ 3 windows), untraced and traced; each exits non-zero on a failed op, a
# violated check or a metric that is not a number.
BENCH_RUN = $(GO) -C bench run repro/bench --seed 1 --seconds 6
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -skip '^TestSmokeSuite$$' ./...
	set -e; for t in 0 1; do \
		for w in http-json wire-stream sharded-query durable-tenancy; do \
			$(BENCH_RUN) --workload $$w --trace $$t >/dev/null; \
		done; \
	done

# The CPU profile of the benchmark's own server on one workload: bench/
# builds distserve with the cpuprofile tag (its `go build` inherits
# GOFLAGS), runs the workload untraced on seeds 1 and 2 (one run is under
# 2 s of samples on http-json), and the servers' 0.5 s profile slices are
# merged and written, flat then cumulative, to profiles/$(W).txt and to
# stdout. W is a workload name from BENCHMARK.json.
PROFILE_TOP = $(GO) tool pprof -top -nodecount=40
profile:
	@test -n "$(W)" || { echo "usage: make profile W=<workload>" >&2; exit 2; }
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
		for s in 1 2; do \
			DISTSERVE_CPUPROFILE=$$d GOFLAGS=-tags=cpuprofile $(GO) -C bench run repro/bench \
				--workload $(W) --seed $$s --seconds 13 --trace 0 >/dev/null || exit 1; \
		done && \
		$(GO) tool pprof -proto $$d/*.pprof >$$d/merged.pb.gz && \
		{ $(PROFILE_TOP) $$d/merged.pb.gz && echo && $(PROFILE_TOP) -cum $$d/merged.pb.gz; } >profiles/$(W).txt
	@cat profiles/$(W).txt

# The in-tree perf floors. README's Performance section lists each guard
# with its floor and package; the scaling guards skip loudly below 4 procs
# and the two kernel guards without AVX2. CI runs exactly this target.
perf-guard:
	$(GO) test -run 'TestFastIngestSpeedupGuard|TestBatchDispatchNeverSlower|TestFastSiteHotPathAllocs|TestFastSiteSteadyStateAllocs|TestBlockedFDSpeedupGuard|TestFDScalingGuard|TestShardedSpeedupGuard|TestShardedItemSpeedupGuard|TestIngestJSONGuard|TestFaultInGuard|TestGramKernelGuard|TestEigSymGuard|TestEigAboveGuard|TestSiteStepKernelGuard|TestReductionKernelGuard|TestWireStreamGuard|TestQueryEncodeGuard|TestQDigestGuard' -v -count=1 ./internal/matrix ./internal/core ./cmd/distsite ./internal/sketch ./internal/hh ./internal/quantile ./internal/service ./internal/wire

# Multi-node end-to-end smoke: distsite streams into distserve over the
# wire protocol on loopback, the coordinator is kill -9'd and restarted
# mid-stream, and the final query must match the site's oracle replay bit
# for bit. Its last phase runs three distsite -protocol p2 sites, which
# stream only the messages of matrix P2's site half, through another
# kill -9, and fails unless the covariance error is within ε over every
# row the sites generated and the tracker received fewer messages than
# rows. CI runs exactly this target.
e2e:
	scripts/e2e_smoke.sh

# Full figure/table regeneration (minutes).
experiments:
	$(GO) run ./cmd/experiments

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# Pinned external linters. CI installs exactly these versions; locally the
# steps are skipped (with a notice) when the binaries are absent, so `make
# lint` never needs network access.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# The required lint gate, run by CI on every push: formatting, go vet, the
# project's own seven distlint analyzers (assembly specs, hot-path
# allocations, mutex guards, snapshot purity, unreachable exported
# functions and methods, error contracts, worker lifecycles — see
# internal/analysis), and the pinned external linters when installed.
# distlint type-checks against the build cache, so build first; it also
# loads the examples of the external test packages and the bench/ module,
# whose references count for the unreachable analyzer.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) run ./cmd/distlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint: govulncheck not installed; skipping (CI pins $(GOVULNCHECK_VERSION))"; fi

# Survey mode: print every distlint finding as clickable file:line:col
# lines without failing, for working through a newly annotated package.
lint-findings:
	$(GO) build ./...
	$(GO) run ./cmd/distlint -exit-zero ./...
