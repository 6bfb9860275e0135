GO ?= go

.PHONY: check fmt vet perfbench-vet rfvet inline-check build test race results-check fuzz perf-smoke trace-smoke replay-smoke obs-smoke edge-audit-smoke bench-smoke bench-history clean

# check is the tier-1 gate: formatting, static analysis (go vet of this
# module and of the perfbench module, plus the repo-specific rfvet
# rules), the inlining guard, build, tests (deterministic: the wall-clock
# perf guards live behind the perfsmoke build tag, see perf-smoke), a
# race-detector pass over the concurrent harness (short mode), the
# paper's numbers (results-check), the runpack replay smoke, the live
# introspection smoke, and the indirect-edge audit smoke.
check: fmt vet perfbench-vet rfvet inline-check build test race results-check replay-smoke obs-smoke edge-audit-smoke

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: files need formatting:"; echo "$$out"; exit 1; \
	fi

# vet also type-checks the perfsmoke-tagged wall-clock guards, which
# `go test ./...` never compiles (vet times nothing).
vet:
	$(GO) vet ./...
	$(GO) vet -tags perfsmoke ./...

# perfbench-vet type-checks the benchmark harness. perfbench/ is its own
# Go module, so `go vet ./...` and `go build ./...` never compile it, yet
# it builds rtlib.RunConfig literals and reads redfat.Options fields and
# rtlib.Runtime stats. vet, unlike `go build` there, writes no binary
# into the benchmark directory.
perfbench-vet:
	$(GO) -C perfbench vet .

# rfvet enforces repo conventions plain vet cannot: telemetry metric
# naming (<pkg>.<noun>.<verb>) and deterministic iteration in table and
# report emitters. See cmd/rfvet.
rfvet:
	$(GO) run ./cmd/rfvet

# inline-check guards the inlining the hot paths depend on: the flight
# recorder's Record and RecordExec, which the VM calls for every event,
# lowfat.Base, which every check computes, and guest memory's TLB hit
# probes tlbRead and tlbWrite, which every load and store makes, must stay
# within the compiler's inlining budget. Past it, each becomes a call that
# costs more than its body, and no test would notice. `go build
# -gcflags=-m=2` prints each cost.
inline-check:
	@inlined=$$($(GO) build -gcflags=-m ./internal/obs ./internal/lowfat ./internal/mem 2>&1 | sed -n 's/^.*: can inline //p'); \
	for fn in '(*Flight).Record' '(*Flight).RecordExec' Base '(*Memory).tlbRead' '(*Memory).tlbWrite'; do \
		if ! printf '%s\n' "$$inlined" | grep -qFx "$$fn"; then \
			echo "inline-check: $$fn is no longer inlinable"; exit 1; \
		fi; \
	done

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# results-check regenerates the paper's numbers and requires them byte for
# byte: it builds rfbench once, runs the five commands results/run.log
# records, and compares each output with its committed results/*.txt.
# The tables are identical at any -parallel width, so the default serves.
results-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/rfbench" ./cmd/rfbench || exit 1; \
	check() { \
		name=$$1; shift; \
		"$$tmp/rfbench" "$$@" -progress=false > "$$tmp/$$name.txt" || exit 1; \
		cmp "$$tmp/$$name.txt" "results/$$name.txt" || exit 1; \
		echo "results-check: results/$$name.txt reproduced"; \
	}; \
	check table1 -table1 -scale 1.0; \
	check falsepos -falsepos -scale 0.1; \
	check table2 -table2; \
	check figure8 -figure8 -fillers 20000 -kscale 5000; \
	check ablation -ablation -scale 0.2 -fillers 8000

# fuzz runs every native Go fuzz target (a func Fuzz* in a _test.go file
# of this module) for 30 s each, one target per `go test -fuzz` call, as
# the go command requires. A crasher lands in the package's
# testdata/fuzz/<target>/ directory; committed there, it runs as a seed
# in `go test ./...` (tier-1) from then on. Minimizing an input is
# quadratic in its length, so it is capped at 5 s (the default 60 s can
# stall a whole campaign on one new-coverage input). Campaigns are
# time-boxed but not deterministic, so fuzz is not part of check.
fuzz:
	@set -e; for dir in $$($(GO) list -f '{{.Dir}}' ./...); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$dir/*_test.go 2>/dev/null); do \
			echo "fuzz: $$t in $$dir"; \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 30s -fuzzminimizetime 5s "$$dir"; \
		done; \
	done

# perf-smoke runs the host fast-path guards in isolation: the
# software-TLB access path must not be slower than the raw page-table walk,
# and the superblock tier must beat the block interpreter by ≥20%
# (relative wall-clock comparisons that retry), and the span-checked
# memcpy intrinsic must beat the per-access-checked guest loop by ≥5x in
# deterministic guest cycles. The two wall-clock guards are compiled
# only under the perfsmoke build tag this target sets, so a loaded host
# cannot fail `make test` / `make check`; the deterministic guest-cycle
# guard (TestPerfSmokeLibcSpan) runs there too. The flight recorder's
# hot-path cost is guarded by counts in `make test`: no events per
# iteration of a compiled loop, no allocation into a full ring.
perf-smoke:
	$(GO) test -tags perfsmoke -run TestPerfSmokeTLB -v ./internal/mem/
	$(GO) test -tags perfsmoke -run TestPerfSmokeJIT -v ./internal/vm/
	$(GO) test -run TestPerfSmokeLibcSpan -v ./internal/bench/

# trace-smoke drives the forensics/profiling CLI flags end to end and
# validates that the emitted Chrome trace JSON (the flight ring at
# execution grain plus profile samples) and folded stacks parse. (The
# same test also runs in `make test`, `make obs-smoke` and `make check`.)
trace-smoke:
	$(GO) test -run TestCLITraceSmoke -v .

# replay-smoke exercises the runpack contract end to end: capture a
# detection run as a digest-signed pack, verify it, replay it to
# byte-identical reports and cycle counts, and prove every seeded tamper
# mode fails verification with its documented exit code. See DESIGN.md §13.
replay-smoke:
	$(GO) test -run 'TestCLIRunpackSmoke|TestVerifyDetectsTampering|TestRunPackVerifiesAndReplaysByteIdentical' -v . ./internal/runpack/

# obs-smoke exercises the event model and the live introspection
# surface: the golden-pinned endpoint formats, the flight-recorder
# semantics, bit-identity of runs with the ring at either grain, the
# execution-grain stream against its golden, the `rfvm -events`
# instruction trace, the Chrome trace export, and a scrape of all five
# endpoints on a live `rfvm -listen` process. See DESIGN.md §15.
obs-smoke:
	$(GO) test -run 'TestEndpoints|TestFlight|TestServerBeforePublish' -v ./internal/obs/
	$(GO) test -run TestFlightIdentityMatrix -v ./internal/vm/
	$(GO) test -run TestExecutionGrainMatchesTracerGolden -v ./internal/rtlib/
	$(GO) test -run 'TestCLIObsSmoke|TestCLITraceSmoke|TestCLIEventsTrace' -v .

# edge-audit-smoke drives the indirect-flow recovery contract end to
# end: rfgen emits the switch-dense and broken-jump-table corpora,
# rfverify -edges audits every recovered edge on each original, full
# translation validation runs under both -noindirect settings, every
# seeded unsound-edge mutant class must be rejected, and every transfer
# the switch-dense programs make at a resolved site must land in its
# recovered target set. See DESIGN.md §17.
edge-audit-smoke:
	$(GO) test -run TestCLIEdgeAuditSmoke -v .
	$(GO) test -run TestEdgeAudit -v ./internal/verify/
	$(GO) test -run TestIndirectEdgeOracle -v ./internal/rtlib/

# bench-smoke regenerates a down-scaled Table 1 with JSON export, as a
# fast end-to-end exercise of the experiment harness.
bench-smoke:
	$(GO) run ./cmd/rfbench -table1 -scale 0.02 -json results/bench.json

# bench-history appends the current revision's down-scaled Table 1 +
# detection matrix to the trajectory series in results/history/ (and
# captures the same document as a verifiable runpack). Compare two
# entries with: rfbench ... -baseline results/history/BENCH_<rev>.json
bench-history:
	$(GO) run ./cmd/rfbench -table1 -table2 -scale 0.02 -progress=false \
		-runpack results/runpack-bench -history results/history

# clean removes the one uncommitted file a target writes under results/
# (bench-smoke's JSON); the tables, history and runpack there are kept.
clean:
	rm -f results/bench.json
