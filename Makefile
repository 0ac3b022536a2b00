# Canonical workflows for the ISRec reproduction.

.PHONY: install test test-faults test-chaos test-serve test-parallel test-online test-intent test-graphs bench bench-smoke bench-full bench-kernels bench-serve bench-serve-cluster bench-parallel bench-backends bench-online bench-isrec telemetry-report table2 table-intents table-graphs figures lint

install:
	pip install -e . || \
	echo "$(PWD)/src" > "$$(python -c 'import site; print(site.getsitepackages()[0])')/repro-dev.pth"

test:
	pytest tests/

test-faults:      ## fault-injection suite (kill/resume, divergence, corruption)
	pytest tests/ -m faults

test-chaos:       ## serving chaos suite (worker kills, corruption, injected faults)
	pytest tests/serve -m faults

test-serve:       ## serving subsystem: exporter, engine, batcher, cluster, parity, golden run
	pytest tests/serve tests/test_golden_e2e.py

test-parallel:    ## parallel subsystem: data-parallel trainer, prefetch, sweep executor
	pytest tests/parallel

test-online:      ## online loop: event log, learner, shadow gate, observe parity, resume
	pytest tests/online tests/serve/test_observe_parity.py tests/train/test_online_resume.py

test-intent:      ## intent objectives: contrastive kernel, sessions, checkpoints, sweep, goldens
	pytest tests/tensor/test_fused_contrastive.py tests/data/test_sessions.py tests/eval/test_session_eval.py tests/train/test_contrastive_checkpoint.py tests/experiments/test_intent_objectives.py tests/test_golden_e2e.py

test-graphs:      ## graph workloads: simulator graphs, KTUP/FM baselines, comparison sweep
	pytest tests/data/test_graphs.py tests/models/test_graph_baselines.py tests/experiments/test_graph_comparison.py

bench:            ## standard preset (~30-40 min on one core)
	pytest benchmarks/ --benchmark-only -s

bench-smoke:      ## plumbing check (~2 min)
	REPRO_BENCH=smoke pytest benchmarks/ --benchmark-only -s

bench-full:       ## full profiles (~hours)
	REPRO_BENCH=full pytest benchmarks/ --benchmark-only -s

bench-kernels:    ## fused vs composed kernel microbench, writes BENCH_kernels.json (<60 s)
	PYTHONPATH=src python -m repro.utils.bench --out BENCH_kernels.json

bench-serve:      ## serving latency/load benchmark, writes BENCH_serve.json (<60 s)
	PYTHONPATH=src python -m repro.serve.bench --out BENCH_serve.json

bench-backends:   ## backend seam benchmark (float32/arena/int8), writes BENCH_backends.json (<5 min)
	PYTHONPATH=src python -m repro.utils.bench_backends --out BENCH_backends.json

bench-serve-cluster: ## cluster load + kill-recovery benchmark, writes BENCH_serve_cluster.json (<2 min)
	PYTHONPATH=src python -m repro.serve.loadgen --out BENCH_serve_cluster.json

bench-parallel:   ## data-parallel training benchmark, writes BENCH_parallel.json (a few min)
	PYTHONPATH=src python -m repro.parallel.bench --out BENCH_parallel.json

bench-online:     ## online-loop drift/fine-tune/rollout benchmark, writes BENCH_online.json (<2 min)
	PYTHONPATH=src python -m repro.online.bench --out BENCH_online.json

bench-isrec:      ## ISRec benchmark (BENCHMARK.json), both workloads untraced at seed 1 (~2 min)
	@for workload in pipeline-sparse pipeline-dense; do \
		python3 isrec_bench/run.py --workload $$workload --seed 1 --seconds 30 --trace 0 || exit 1; \
	done

telemetry-report: ## pretty-print a telemetry stream: make telemetry-report FILE=runs/x.telemetry.jsonl
	@test -n "$(FILE)" || { echo "usage: make telemetry-report FILE=<run>.telemetry.jsonl"; exit 2; }
	PYTHONPATH=src python -m repro.obs.report $(FILE)

table2:
	python -m repro.experiments table2

table-intents:
	python -m repro.experiments intents

table-graphs:
	python -m repro.experiments graphs

figures:
	python -m repro.experiments figure2
	python -m repro.experiments figure3
	python -m repro.experiments figure4
