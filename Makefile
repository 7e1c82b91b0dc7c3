.PHONY: build test race fmt vet lint loc loc-check bench bench-smoke ci

GO ?= go

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole tree must be race-clean: a hand-maintained package list
# silently skips new concurrency-heavy packages, so race runs
# everything, same as test.
race:
	$(GO) test -race ./...

fmt:
	@out=$$(gofmt -s -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Repo-specific invariants (docs/INVARIANTS.md): bounded wire decodes,
# context-aware job submission, lock discipline, idempotent Close,
# atomic metrics. Gating — a finding fails the build.
lint:
	$(GO) run ./cmd/shark-lint ./...

# The files the line count covers: tracked non-test Go outside bench/
# and testdata/.
LOC_FILES = git ls-files '*.go' | grep -v -e _test.go -e '^bench/' -e /testdata/

# The line ceiling loc-check holds the tree to. A deletion PR lowers
# it to its own count; a PR that must raise it says by how much and
# why in CHANGES.md.
LOC_CEILING = 29953

# The deletion-pass line count: LOC_FILES as total lines and as code
# lines (non-blank, not a // comment line), for the tree and for its
# five largest packages (directories, ranked by total lines —
# computed, so a PR never edits this target to show its own number).
loc:
	@files=$$($(LOC_FILES)); \
	count() { \
		printf '%-17s %6d lines %6d code\n' "$$1" \
			$$(cat $$2 | wc -l) $$(cat $$2 | grep -cvE '^[[:space:]]*(//.*)?$$'); \
	}; \
	count tree "$$files"; \
	for d in $$(for f in $$files; do echo "$$(wc -l < $$f) $$(dirname $$f)"; done | \
		awk '{n[$$2] += $$1} END {for (d in n) print n[d], d}' | sort -k1,1nr -k2 | head -5 | cut -d' ' -f2); do \
		case $$d in .) in='^[^/]*$$';; *) in="^$$d/[^/]*$$";; esac; \
		count $$d "$$(echo "$$files" | grep "$$in")"; \
	done

# Gating: fails when the tree's total lines (as `make loc` counts
# them) exceed LOC_CEILING.
loc-check:
	@n=$$(cat $$($(LOC_FILES)) | wc -l); \
	if [ $$n -gt $(LOC_CEILING) ]; then \
		echo "tree is $$n lines, over the ceiling of $(LOC_CEILING)"; exit 1; \
	fi; \
	echo "tree is $$n lines, ceiling $(LOC_CEILING)"

# Bench smoke: one iteration of every benchmark (columnar, expr, and
# the top-level suite) so they keep compiling and running (non-gating
# in CI). Timings are bench/'s job: `bash bench/run.sh`.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Harness smoke: the dispatcher, memory-pressure, tiered-storage,
# multi-tenant concurrency, weighted-priority, adaptive-execution,
# network-serving and observability ablations at CI scale, with a
# Markdown report for the artifact trail — the experiments' own
# assertions comparing the spill-read path against lineage recomputation,
# asserting the weighted p95 ordering, requiring the adaptive skewed
# join to beat the static plan, recording serving QPS/p95 for 100
# concurrent driver connections against an in-process shark-server,
# gating statement-tracing overhead at p95 +5%, and gating the
# plan/result caches: abl_qps fails unless cached QPS strictly beats
# uncached with byte-identical results. fig13 prints the Spark- vs
# Hadoop-mode job time over 1–64 reduce tasks (the §7.1 task-launch
# cost curve). With
# SHARK_OBS_ARTIFACT_DIR set, a live /metrics scrape, the /queries
# trace log and an EXPLAIN ANALYZE plan land there for upload.
bench-smoke:
	$(GO) run ./cmd/shark-bench -run abl_dispatch,abl_memory,abl_storage,abl_concurrency,abl_priority,abl_pde,abl_serving,abl_obs,abl_qps,fig13 -scale small -markdown bench-report.md

ci: build vet fmt lint loc-check test race
