GO ?= go

.PHONY: build test test-race bench-e2e chaos chaos-long obs-smoke cluster-demo scale-smoke lint loc clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-enabled run, what CI executes.
test-race:
	$(GO) test -race ./...

# Deterministic chaos profile (what CI's chaos-smoke job runs) and the
# long soak. Failures dump seed+schedule+history reproducers under
# chaos-repro/ when CHAOS_REPRO_DIR is set.
chaos:
	$(GO) test -race -run 'TestChaos' ./internal/consistency/

chaos-long:
	$(GO) test -race -timeout 1800s -run TestChaosSoak -chaos.long -v ./internal/consistency/

# Every workload of the repo's benchmark (BENCHMARK.json) for one
# measured second: the exit code is the correctness of every answer and
# read-back, not a timing (CI's benchmark-smoke job). Build output stays
# under .bench_build/.
bench-e2e:
	bash benchmark/run.sh --workload all --seed 1 --seconds 1 --trace 0

# Boot udrd -admin and verify the /healthz + /metrics scrape contract
# (the acceptance metric families). CI runs this as the obs-smoke job.
obs-smoke:
	sh scripts/obs_smoke.sh

# Three udrd nodes over real TCP LDAP: provision through one, kill it,
# verify the survivors' /metrics + /trace/slow surfaces and the
# shutdown summary line. CI runs this as the cluster-demo job.
cluster-demo:
	sh scripts/cluster_demo.sh

# Provision ~100k subscribers, checkpoint, crash, recover; assert the
# recovered digest and the recovery-time budget (CI's scale-smoke job).
scale-smoke:
	SCALE_SMOKE=1 $(GO) test -race -run TestScaleSmoke -v ./internal/wal/

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# Non-test Go line count, in total and without the benchmark harness:
# the figure a "less code" claim quotes.
GO_SRC = find . -name '*.go' ! -name '*_test.go' ! -path './.*'
loc:
	@echo "non-test Go lines: $$($(GO_SRC) | xargs cat | wc -l)"
	@echo "non-test Go lines excluding benchmark/: $$($(GO_SRC) ! -path './benchmark/*' | xargs cat | wc -l)"

clean:
	$(GO) clean ./...
	rm -f udrd udrctl udrbench provision *.test cpu.prof mem.prof
