# Convenience targets for the repro project.

PYTHON ?= python

.PHONY: install test bench bench-full figures campaign-quick obs-smoke faults-smoke serve-smoke shard-smoke chaos-smoke rebalance-smoke vec-smoke zoo-smoke runner-resilience lint-clean all

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The reproduction report: every bench_*.py prints its table and
# asserts its shape (the perf harness in benchmarks/perf runs apart).
bench:
	$(PYTHON) -m pytest -s benchmarks/ --ignore=benchmarks/perf

bench-full:
	REPRO_BENCH_SCALE=full $(PYTHON) -m pytest -s benchmarks/ --ignore=benchmarks/perf

# Regenerate every paper table/figure via the CLI (quick scales).
figures:
	$(PYTHON) -m repro table1
	$(PYTHON) -m repro table2 --m 16 --k 3 --p 1000
	$(PYTHON) -m repro fig03
	$(PYTHON) -m repro fig08
	$(PYTHON) -m repro fig10 --quick
	$(PYTHON) -m repro fig11 --quick
	$(PYTHON) -m repro ratios
	$(PYTHON) -m repro tails
	$(PYTHON) -m repro explore

# End-to-end exercise of the parallel campaign runner: run a small
# fig11 campaign twice with -j 2 — the second pass must be all-cached —
# then replay a golden trace.
campaign-quick:
	rm -rf results/.cache-quick
	PYTHONPATH=src $(PYTHON) -m repro campaign fig11 --quick -j 2 \
		--m 6 --k 2 --n 200 --repeats 2 --cache-dir results/.cache-quick
	PYTHONPATH=src $(PYTHON) -m repro campaign fig11 --quick -j 2 \
		--m 6 --k 2 --n 200 --repeats 2 --cache-dir results/.cache-quick \
		| grep -q "0 executed"
	PYTHONPATH=src $(PYTHON) -m repro replay --golden eft-min-m4 \
		| grep -q "placements match recorded trace: yes"
	rm -rf results/.cache-quick

# Metrics smoke: a tiny campaign with --metrics at two job counts must
# produce byte-identical, schema-valid snapshots.
obs-smoke:
	rm -rf results/.obs-smoke
	PYTHONPATH=src $(PYTHON) -m repro campaign fig11 --quick -j 1 \
		--m 6 --k 2 --n 150 --repeats 2 --cache-dir results/.obs-smoke/cache \
		--metrics results/.obs-smoke/m1.json
	PYTHONPATH=src $(PYTHON) -m repro campaign fig11 --quick -j 4 \
		--m 6 --k 2 --n 150 --repeats 2 --cache-dir results/.obs-smoke/cache \
		--metrics results/.obs-smoke/m4.json
	cmp results/.obs-smoke/m1.json results/.obs-smoke/m4.json
	PYTHONPATH=src $(PYTHON) -m repro.obs.validate \
		results/.obs-smoke/m1.json results/.obs-smoke/m4.json
	rm -rf results/.obs-smoke

# Fault-injection smoke: a tiny chaos-faulted run must complete, be
# deterministic (two runs, identical snapshots) and schema-valid.
faults-smoke:
	rm -rf results/.faults-smoke
	PYTHONPATH=src $(PYTHON) -m repro faulted --m 6 --k 2 --n 120 \
		--mtbf 30 --mttr 4 --policy restart \
		--metrics results/.faults-smoke/a.json
	PYTHONPATH=src $(PYTHON) -m repro faulted --m 6 --k 2 --n 120 \
		--mtbf 30 --mttr 4 --policy restart \
		--metrics results/.faults-smoke/b.json
	cmp results/.faults-smoke/a.json results/.faults-smoke/b.json
	PYTHONPATH=src $(PYTHON) -m repro.obs.validate \
		results/.faults-smoke/a.json results/.faults-smoke/b.json
	rm -rf results/.faults-smoke

# The serve smokes also pin their assignment digests as literals, so a
# change that moved every run the same way still fails.  The chaos digest
# is BENCH_recovery.json's assignments_digest.
SERVE_SMOKE_SHA := 57a1b94bba79490c5b8e49891fe59e0285877245cbe8787c47df0bdb117ff593
SHARD_SMOKE_SHA := dbe180eb289ec7d4ce87f9e2aeaa5894c330367472a4483b9192c9bd2b0ef678
CHAOS_SMOKE_SHA := 01504c64677be0039f31e4f1c3aeec7fd08ba1d7a174172618aa0e18208bc5b9

# Serving smoke: a short loopback bench-serve must drop nothing
# (errors: 0), place identically across two same-seed runs (equal
# assignment digests) and write a schema-valid metrics snapshot.
serve-smoke:
	rm -rf results/.serve-smoke
	mkdir -p results/.serve-smoke
	PYTHONPATH=src $(PYTHON) -m repro bench-serve --m 4 --k 2 \
		--rate 400 --n 250 --proc 0.005 --seed 42 \
		--metrics results/.serve-smoke/a.metrics.json \
		| tee results/.serve-smoke/a.txt
	PYTHONPATH=src $(PYTHON) -m repro bench-serve --m 4 --k 2 \
		--rate 400 --n 250 --proc 0.005 --seed 42 \
		--metrics results/.serve-smoke/b.metrics.json \
		| tee results/.serve-smoke/b.txt
	grep -q "errors: 0" results/.serve-smoke/a.txt
	grep -q "errors: 0" results/.serve-smoke/b.txt
	grep "assignments sha256" results/.serve-smoke/a.txt > results/.serve-smoke/a.sha
	grep "assignments sha256" results/.serve-smoke/b.txt > results/.serve-smoke/b.sha
	cmp results/.serve-smoke/a.sha results/.serve-smoke/b.sha
	grep -q "assignments sha256: $(SERVE_SMOKE_SHA)" results/.serve-smoke/a.sha
	PYTHONPATH=src $(PYTHON) -m repro.obs.validate \
		results/.serve-smoke/a.metrics.json results/.serve-smoke/b.metrics.json
	rm -rf results/.serve-smoke

# Sharded serving smoke: a 3-shard loopback fleet over a disjoint
# workload (m=6, k=2) must drop nothing, place deterministically across
# two runs, and — Theorem 6 — byte-match the single-dispatcher digest;
# so must one `repro serve --shards 3` process (the router frontend)
# driven over its socket with the same stream.
shard-smoke:
	rm -rf results/.shard-smoke
	mkdir -p results/.shard-smoke
	PYTHONPATH=src $(PYTHON) -m repro bench-serve --m 6 --k 2 \
		--strategy disjoint --shards 3 --rate 600 --n 180 \
		--proc 0.005 --seed 42 \
		| tee results/.shard-smoke/a.txt
	PYTHONPATH=src $(PYTHON) -m repro bench-serve --m 6 --k 2 \
		--strategy disjoint --shards 3 --rate 600 --n 180 \
		--proc 0.005 --seed 42 \
		| tee results/.shard-smoke/b.txt
	PYTHONPATH=src $(PYTHON) -m repro bench-serve --m 6 --k 2 \
		--strategy disjoint --shards 1 --rate 600 --n 180 \
		--proc 0.005 --seed 42 \
		| tee results/.shard-smoke/single.txt
	grep -q "errors: 0" results/.shard-smoke/a.txt
	grep -q "errors: 0" results/.shard-smoke/b.txt
	grep -q "3 shard(s)" results/.shard-smoke/a.txt
	grep "assignments sha256" results/.shard-smoke/a.txt > results/.shard-smoke/a.sha
	grep "assignments sha256" results/.shard-smoke/b.txt > results/.shard-smoke/b.sha
	grep "assignments sha256" results/.shard-smoke/single.txt > results/.shard-smoke/single.sha
	cmp results/.shard-smoke/a.sha results/.shard-smoke/b.sha
	cmp results/.shard-smoke/a.sha results/.shard-smoke/single.sha
	grep -q "assignments sha256: $(SHARD_SMOKE_SHA)" results/.shard-smoke/a.sha
	PYTHONPATH=src timeout 120 $(PYTHON) -m repro serve \
		--socket results/.shard-smoke/serve.sock --m 6 --shards 3 --align-k 2 \
		> results/.shard-smoke/serve.log 2>&1 & \
	for i in $$(seq 1 100); do \
		[ -S results/.shard-smoke/serve.sock ] && break; sleep 0.1; \
	done; \
	PYTHONPATH=src $(PYTHON) -m repro drive --socket results/.shard-smoke/serve.sock \
		--m 6 --k 2 --strategy disjoint --rate 600 --n 180 --proc 0.005 --seed 42 \
		--shutdown > results/.shard-smoke/serve.txt; \
	wait $$!
	cat results/.shard-smoke/serve.txt
	grep -q "errors: 0" results/.shard-smoke/serve.txt
	grep "assignments sha256" results/.shard-smoke/serve.txt > results/.shard-smoke/serve.sha
	cmp results/.shard-smoke/serve.sha results/.shard-smoke/single.sha
	rm -rf results/.shard-smoke

# Chaos smoke: a seeded chaos drive (drops, truncation, corruption,
# duplicate delivery) with shard 0 SIGKILLed mid-run must lose nothing,
# double-dispatch nothing, and — after journal replay — byte-match the
# clean run's assignment digest.  Recovery stats stay in
# results/.chaos-smoke/BENCH_recovery.json; the tracked
# BENCH_recovery.json is refreshed by hand (see README).
chaos-smoke:
	rm -rf results/.chaos-smoke
	mkdir -p results/.chaos-smoke
	PYTHONPATH=src $(PYTHON) -m repro bench-serve --m 6 --k 2 \
		--strategy disjoint --shards 3 --rate 400 --n 120 \
		--proc 0.005 --seed 42 \
		| tee results/.chaos-smoke/clean.txt
	PYTHONPATH=src $(PYTHON) -m repro bench-serve --m 6 --k 2 \
		--strategy disjoint --shards 3 --rate 400 --n 120 \
		--proc 0.005 --seed 42 \
		--chaos --chaos-seed 7 --kill-shard 0 --kill-after 0.4 \
		--recovery-out results/.chaos-smoke/BENCH_recovery.json \
		| tee results/.chaos-smoke/chaos.txt
	grep -q "errors: 0" results/.chaos-smoke/chaos.txt
	grep -q "lost: 0" results/.chaos-smoke/chaos.txt
	grep -q "double-dispatched: 0" results/.chaos-smoke/chaos.txt
	grep "assignments sha256" results/.chaos-smoke/clean.txt > results/.chaos-smoke/clean.sha
	grep "assignments sha256" results/.chaos-smoke/chaos.txt > results/.chaos-smoke/chaos.sha
	cmp results/.chaos-smoke/clean.sha results/.chaos-smoke/chaos.sha
	grep -q "assignments sha256: $(CHAOS_SMOKE_SHA)" results/.chaos-smoke/chaos.sha

# Rebalance smoke: on a hotspot-shift workload the adaptive policy
# must beat both static placements on p99 flow, the recorded trace
# must replay byte-identically, and two same-seed runs must print
# identical reports.
rebalance-smoke:
	rm -rf results/.rebalance-smoke
	mkdir -p results/.rebalance-smoke
	PYTHONPATH=src $(PYTHON) -m repro rebalance --m 12 --n 1500 \
		--policy compare --seed 0 \
		--events results/.rebalance-smoke/reb.trace.jsonl \
		| tee results/.rebalance-smoke/a.txt
	PYTHONPATH=src $(PYTHON) -m repro rebalance --m 12 --n 1500 \
		--policy compare --seed 0 \
		| tee results/.rebalance-smoke/b.txt
	grep -q "adaptive beats both static p99: yes" results/.rebalance-smoke/a.txt
	grep "sha256" results/.rebalance-smoke/a.txt > results/.rebalance-smoke/a.sha
	grep "sha256" results/.rebalance-smoke/b.txt > results/.rebalance-smoke/b.sha
	cmp results/.rebalance-smoke/a.sha results/.rebalance-smoke/b.sha
	PYTHONPATH=src $(PYTHON) -m repro replay \
		results/.rebalance-smoke/reb.trace.jsonl \
		| grep -q "byte-identical replay: yes"
	rm -rf results/.rebalance-smoke

# Vectorized-engine smoke: every golden fixture must replay
# byte-identically through the array backend (EFT-Rand exercises the
# silent reference fallback), a fresh workload must match the
# reference bit-for-bit, and a quick-scale speedup race must clear
# the throughput floor.
vec-smoke:
	PYTHONPATH=src $(PYTHON) -m repro vec-check --backend array
	PYTHONPATH=src $(PYTHON) -m repro vec-check --backend auto
	PYTHONPATH=src $(PYTHON) -m pytest -q -s \
		benchmarks/bench_scheduler_throughput.py -k speedup

# Zoo-smoke: the compare-schedulers grid must be byte-deterministic
# (two identical-seed runs, identical output including traces) and the
# provable ordering must hold — fault-free identical machines, SRPT-PS
# mean flow <= EFT-Min mean flow.
zoo-smoke:
	rm -rf results/.zoo-smoke
	mkdir -p results/.zoo-smoke/ta results/.zoo-smoke/tb
	PYTHONPATH=src $(PYTHON) -m repro compare-schedulers \
		--m 6 --n 200 --loads 0.7,0.9 --seed 0 \
		--traces results/.zoo-smoke/ta \
		| tee results/.zoo-smoke/a.txt
	PYTHONPATH=src $(PYTHON) -m repro compare-schedulers \
		--m 6 --n 200 --loads 0.7,0.9 --seed 0 \
		--traces results/.zoo-smoke/tb \
		> results/.zoo-smoke/b.txt
	cmp results/.zoo-smoke/a.txt results/.zoo-smoke/b.txt
	for f in results/.zoo-smoke/ta/*.jsonl; do \
		cmp "$$f" "results/.zoo-smoke/tb/$$(basename $$f)" || exit 1; \
	done
	grep -q "sanity identical-machines fault-free: .*: OK" results/.zoo-smoke/a.txt
	rm -rf results/.zoo-smoke

# Runner-resilience: a crashing unit must yield exactly one failed
# outcome (not a pool abort), retries must heal a flaky unit, and an
# interrupted campaign must leave a resumable manifest.
runner-resilience:
	PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/campaigns/test_resilience.py tests/campaigns/test_resume.py

all: install test bench
