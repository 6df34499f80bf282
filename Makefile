# Convenience targets mirroring the CI gates (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race vet fuzz bench shardbench golden reach

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet runs the standard go vet checks plus slothvet, the repo's own
# invariant analyzers (wallclock, stmtscope, snapwrite, mapdet,
# atomicfield, faultrand — see DESIGN.md §11). Both are blocking, same as CI.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/slothvet

# Short mutation budgets; the seed corpora already run under `make test`.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 30s ./internal/sqldb/sqlparse
	$(GO) test -run '^$$' -fuzz FuzzLazyc -fuzztime 30s ./internal/lazyc

bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Sharded-throughput sweep: same report as `-exp throughput` with a
# shards column, so the scatter-gather occupancy win (and the rendered
# bytes staying identical across shard counts) is visible locally.
shardbench:
	$(GO) run ./cmd/slothbench -exp throughput -shards 1,4 -workers 2

# The deterministic figures' committed reports, compared byte for byte by
# TestExperimentsGolden (cmd/slothbench/golden_test.go, which lists the same
# experiments and arguments). Regenerate after an intended change to a
# figure and review it with `git diff cmd/slothbench/testdata`.
GOLDEN_DIR = cmd/slothbench/testdata
GOLDEN_EXPS = fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 appendix ablation merge faults

golden:
	mkdir -p $(GOLDEN_DIR) .golden_build
	$(GO) build -o .golden_build/slothbench ./cmd/slothbench
	for e in $(GOLDEN_EXPS); do .golden_build/slothbench -exp $$e > $(GOLDEN_DIR)/$$e.txt || exit 1; done
	.golden_build/slothbench -exp trace -traceout '' > $(GOLDEN_DIR)/trace.txt
	.golden_build/slothbench -exp throughput -sessions 1 -workers 1,4 > $(GOLDEN_DIR)/throughput.txt

# The reach ledger, reach.txt: every non-test function that no real caller
# runs (scripts/reach.sh builds and drives them all, ~1 min), with the reason
# it stays. Regenerating keeps each surviving entry's reason; a new entry
# reads UNEXPLAINED, which CI rejects until it has a reason or its function
# is deleted.
reach:
	bash scripts/reach.sh > .reach.names
	awk -F'\t' 'NR == FNR { r[$$1] = $$2; next } { print $$0 "\t" ($$0 in r ? r[$$0] : "UNEXPLAINED") }' reach.txt .reach.names > .reach.txt
	mv .reach.txt reach.txt
	rm -f .reach.names
