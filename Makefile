# Developer entry points. CI runs the same steps (see .github/workflows).

GO ?= go

.PHONY: build test loc symbols race bench-check perf-guard experiments fmt vet lint lint-findings e2e

build:
	$(GO) build ./...

# Two legs, as in CI: the default build (on amd64 the assembly bodies of
# internal/matrix's kernels — gramRow and the row kernels of the P2 site
# step — where the CPU has AVX2) and the purego tag's portable bodies over
# the packages whose results depend on those kernels (internal/node runs
# internal/core's site half; internal/hh rides along so both protocols'
# replay tests see both legs). testdata/golden-*.ckpt must pass on both:
# that is the bodies' bit-identity at system level. A third leg builds for
# 386 and runs the frame codec and its two users there, the portable
# Gram body (its row offsets i·d + m) with the FD sketch over it, and the
# service, whose JSON digit walk reads unchecked and whose decoders do
# index math: a 32-bit int is where a length check or an index that
# multiplies wraps first. -short skips the wall-clock guards, which time
# the amd64 build.
test:
	$(GO) test ./...
	$(GO) test -tags purego ./internal/matrix ./internal/core ./internal/sketch ./internal/node ./internal/hh .
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test ./internal/frame ./internal/wire ./internal/wal
	GOARCH=386 $(GO) test -short ./internal/matrix ./internal/sketch ./internal/service

# Non-test Go outside bench/ and outside the analyzers' fixtures (sources
# under internal/analysis/testdata that only the analyzer tests load): the
# number ROADMAP's quality-of-design aim tracks.
loc:
	@git ls-files '*.go' | grep -v -e '^bench/' -e '^internal/analysis/testdata/' | grep -v '_test.go$$' | xargs cat | wc -l

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

# The in-tree perf floors. README's Performance section lists each guard
# with its floor and package; the scaling guards skip loudly below 4 procs
# and the two kernel guards without AVX2. CI runs exactly this target.
perf-guard:
	$(GO) test -run 'TestFastIngestSpeedupGuard|TestBatchDispatchNeverSlower|TestFastSiteHotPathAllocs|TestFastSiteSteadyStateAllocs|TestBlockedFDSpeedupGuard|TestShardedSpeedupGuard|TestShardedItemSpeedupGuard|TestIngestJSONGuard|TestFaultInGuard|TestGramKernelGuard|TestEigSymGuard|TestSiteStepKernelGuard|TestWireStreamGuard|TestQueryEncodeGuard|TestQDigestGuard' -v -count=1 ./internal/matrix ./internal/core ./internal/node ./internal/sketch ./internal/hh ./internal/quantile ./internal/service ./internal/wire

# Multi-node end-to-end smoke: distsite streams into distserve over the
# wire protocol on loopback, the coordinator is kill -9'd and restarted
# mid-stream, and the final query must match the site's oracle replay bit
# for bit. Then distdemo runs the node runtime's matrix P2 over the same
# transport and exits non-zero unless the covariance error is within ε and
# the coordinator received fewer messages than rows. CI runs exactly this
# target.
e2e:
	scripts/e2e_smoke.sh
	$(GO) run ./cmd/distdemo -n 20000

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
# functions, error contracts, worker lifecycles — see internal/analysis),
# and the pinned external linters when installed. distlint type-checks
# against the build cache, so build first; it also loads the bench/ module,
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
