# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

.PHONY: build test race lint vet selftest bench loc

build:
	go build ./...

test:
	go test ./...

race:
	go test -race gputrid ./internal/... ./cmd/tridserve

# Project-invariant analyzers (clock injection, ctx threading, hot-path
# allocs, lock ranks, typed-error matching). Blocking in CI.
lint: vet
	go run ./cmd/tridlint ./...

vet:
	go vet ./...

selftest:
	go run -race ./cmd/tridserve -selftest

# The repo benchmark (BENCHMARK.json): builds tridload from source and
# runs all four workloads, writing results to .bench_build/run.json.
bench:
	bash cmd/tridload/bench.sh -out .bench_build/run.json

# Non-test Go lines outside the benchmark harness and its build output:
# the size figure every simplicity change reports.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './cmd/tridload/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l
