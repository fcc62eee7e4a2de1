# Developer entry points mirroring what CI enforces (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test lint nouslint fmt bench sysbench loc

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# lint = everything CI's static gates run: gofmt, go vet, the nouslint
# invariant suite, and staticcheck when it is installed locally.
lint: nouslint
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# nouslint runs the repo's own invariant suite over every non-test file,
# with -json as CI does (the output CI turns into annotations).
nouslint:
	$(GO) run ./cmd/nouslint -json ./...

fmt:
	gofmt -w .

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# sysbench runs the system benchmark (benchmark/, BENCHMARK.json) the way the
# driver does — one fresh process per workload at --seed 1 --seconds 10 — and
# prints each run's contract line (its last: correct/attempted/failed/metrics).
# Run it on the parent commit and on a change to check for regressions.
sysbench:
	@for w in ingest_stream query_static query_live restart_recover; do \
		out=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 10 --trace 0); rc=$$?; \
		echo "$$w $$(echo "$$out" | tail -n 1)"; \
		[ $$rc -eq 0 ] || exit $$rc; \
	done

# loc prints the non-test, non-comment, non-blank Go lines of each package.
# System code is internal/* less internal/analysis, plus the root package and
# cmd/nous; benchmark/ is totalled on its own. A comment line is one whose
# first non-blank characters are //.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do \
		case $$pkg in \
		nous/internal/analysis|nous/internal/analysis/*) continue ;; \
		nous|nous/cmd/nous|nous/internal/*|nous/benchmark) ;; \
		*) continue ;; \
		esac; \
		echo "$$pkg $$(cat $$files | grep -v '^[[:space:]]*//' | grep -cv '^[[:space:]]*$$')"; \
	done | awk '{ printf "%-28s %6d\n", $$1, $$2; total[$$1 == "nous/benchmark" ? "benchmark" : "system"] += $$2 } \
		END { printf "%-28s %6d\n%-28s %6d\n", "system", total["system"], "benchmark", total["benchmark"] }'
