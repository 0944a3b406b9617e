# Developer entry points.  Every target sets PYTHONPATH=src so the repo works
# without installation; `make install` makes that unnecessary.

PYTHON ?= python
EXAMPLES := quickstart text_to_vis_pipeline chart_captioning fevisqa_assistant dataset_report calibrate_checkpoint trace_request

.PHONY: test test-fast test-streaming test-chaos test-perfbench bench bench-decode bench-continuous bench-serving bench-deploy bench-scale bench-corpus bench-obs calibrate-demo trace-demo smoke ci install docs check-docs help

help:
	@echo "make test          - tier-1 verification: full test + benchmark suite (pytest -x -q)"
	@echo "make test-fast     - tests/ only, without the process-killing chaos suite (pytest tests -m 'not chaos')"
	@echo "make test-streaming - streaming + corpus-QA equivalence suites only (chunk protocol, reassembly-equals-sync, differential retrieval)"
	@echo "make test-chaos    - sharded-tier chaos suite only, bounded by a 900s watchdog (pytest -m chaos)"
	@echo "make test-perfbench - the serving benchmark's own tests (perfbench/, smoke size; outside tier-1 testpaths)"
	@echo "make bench         - benchmark harness only (paper tables I-XII at smoke scale)"
	@echo "make bench-decode  - decode + precision benchmark -> BENCH_decode.json + BENCH_quant_policy.json (fails if cached decode is slower than naive, fp32 slower than fp64, fp32 agreement < 99%, calibrated int8 agreement < 99%, int8 speedup < 1.5x, or int8 compression < 6x)"
	@echo "make bench-continuous - continuous-batching benchmark -> BENCH_continuous.json (fails if continuous tokens/sec < static batching, short-request p50 improves < 1.5x, or any output diverges from the naive oracle or, in the record-only uniform-budget paged vs lock-step section, from lock-step)"
	@echo "make bench-serving - serving-under-load + precision-sweep benchmark -> BENCH_serving.json (fails if the async server is slower than sync Pipeline.serve, or calibrated int8 serving agreement < 99%)"
	@echo "make calibrate-demo - run the int8 calibration walkthrough (examples/calibrate_checkpoint.py)"
	@echo "make bench-deploy  - deployment-lifecycle benchmark -> BENCH_deploy.json (fails if a hot swap drops/errors/misroutes a request, incumbent outputs change, canary routing is non-deterministic, or shadow agreement < 1.0)"
	@echo "make bench-scale   - sharded-tier scale benchmark -> BENCH_scale.json (fails if outputs diverge from Pipeline.serve, 2-shard speedup < 1.7x, 4-shard speedup < 3x, or a rolling swap drops a request)"
	@echo "make bench-corpus  - corpus-QA retrieval + streaming benchmark -> BENCH_corpus.json (fails if hit rate < 0.9, rankings are non-deterministic, any stream is not bitwise-equal to sync on either tier, or first-chunk p50 > 0.5x full-response p50)"
	@echo "make bench-obs     - observability benchmark -> BENCH_obs.json (fails if tracing costs > 3% tokens/sec, or one sharded streamed corpus_qa request does not reconstruct its full gateway->shard->pipeline->decode span tree)"
	@echo "make trace-demo    - stream one corpus_qa request with tracing on and print its span tree (examples/trace_request.py)"
	@echo "make smoke         - run every example end-to-end"
	@echo "make docs          - regenerate the API reference (docs/api/) from docstrings"
	@echo "make check-docs    - docstring-coverage gate: fail if any public repro.* surface lacks a docstring"
	@echo "make ci            - what the CI workflow runs: tier-1 tests + smoke + docs build + docstring gate"
	@echo "make install       - editable install (pip install -e .)"

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# The fast inner loop: unit/property suites only — no paper-table benchmarks
# (directory split) and no chaos suite (marker split; it kills real forked
# processes and dominates tests/ wall-clock).
test-fast:
	PYTHONPATH=src $(PYTHON) -m pytest tests -q -m "not chaos"

# The streaming contract end to end: chunk wire protocol, reassembly-equals-
# sync properties, and the retrieval index's differential determinism.
test-streaming:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_serving_streaming.py tests/test_serving_protocol_roundtrip.py tests/datasets/test_corpus_index.py -q

# The chaos suite SIGKILLs/SIGSTOPs live shard processes; if a gateway
# regression ever left a request future unresolved it would hang rather than
# fail, so the watchdog turns that hang into a hard failure.
test-chaos:
	PYTHONPATH=src timeout 900 $(PYTHON) -m pytest tests -q -m chaos

# The serving benchmark (perfbench/, see perfbench/README.md) imports and
# patches serving internals by name; its own smoke-size tests catch an API
# change that would break it.  It sits outside tier-1's testpaths.
test-perfbench:
	$(PYTHON) -m pytest perfbench -q

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks -q

bench-decode:
	PYTHONPATH=src $(PYTHON) benchmarks/decode_benchmark.py --output BENCH_decode.json

bench-continuous:
	PYTHONPATH=src $(PYTHON) benchmarks/continuous_benchmark.py --output BENCH_continuous.json

bench-serving:
	PYTHONPATH=src $(PYTHON) benchmarks/serving_benchmark.py --output BENCH_serving.json

bench-deploy:
	PYTHONPATH=src $(PYTHON) benchmarks/deploy_benchmark.py --output BENCH_deploy.json

bench-scale:
	PYTHONPATH=src $(PYTHON) benchmarks/scale_benchmark.py --output BENCH_scale.json

bench-corpus:
	PYTHONPATH=src $(PYTHON) benchmarks/corpus_benchmark.py --output BENCH_corpus.json

bench-obs:
	PYTHONPATH=src $(PYTHON) benchmarks/obs_benchmark.py --output BENCH_obs.json

# The observability walkthrough (trace one streamed request, render the span
# tree and the merged metrics); `make smoke` also runs it.
trace-demo:
	PYTHONPATH=src $(PYTHON) examples/trace_request.py

# The full calibration workflow (fine-tune -> calibrate -> quantize ->
# register -> rebuild) at example scale; `make smoke` also runs it.
calibrate-demo:
	PYTHONPATH=src $(PYTHON) examples/calibrate_checkpoint.py

# Keep this the single source of truth for what CI executes, so local runs
# and .github/workflows/ci.yml can never drift apart.  `docs` doubles as the
# docs build check (a module that fails to import or document fails CI), and
# the diff check after it fails CI when the regenerated API reference does
# not match the committed docs/api pages — generation is deterministic, so a
# mismatch means someone changed docstrings without running `make docs`.
ci: test smoke docs check-docs
	git diff --exit-code -- docs/api

smoke:
	@set -e; for example in $(EXAMPLES); do \
		echo "== examples/$$example.py =="; \
		PYTHONPATH=src $(PYTHON) examples/$$example.py; \
	done

docs:
	PYTHONPATH=src $(PYTHON) tools/gen_api_docs.py --output docs/api

check-docs:
	$(PYTHON) tools/check_docstrings.py --root src/repro

# pip's editable path needs the `wheel` package; fully-offline images without
# it fall back to the legacy setuptools develop command.
install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop
