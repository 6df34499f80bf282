# Convenience targets mirroring the CI gates (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race vet fuzz bench shardbench

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
