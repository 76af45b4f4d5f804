# Tier-1 verification in one command: build + full test suite (the
# parallel-vs-sequential determinism tests included) with backtraces on.
.PHONY: all build test check smoke report-smoke chaos-smoke scenario-smoke convert-smoke explain-smoke churn-smoke scale-smoke alloc-gate trace-identity bench-micro bench-scale bench-connscale clean

all: build

build:
	dune build

test:
	OCAMLRUNPARAM=b dune runtest

check: smoke report-smoke chaos-smoke scenario-smoke convert-smoke explain-smoke churn-smoke scale-smoke alloc-gate trace-identity
	OCAMLRUNPARAM=b dune build
	OCAMLRUNPARAM=b dune runtest

# End-to-end observability smoke: a tiny observed sweep writes
# trace/metrics JSONL, then inspect re-parses every line (it exits
# nonzero on the first malformed one) and prints the golden
# test/regress/smoke_inspect.txt for the sweep's four runs.  The same
# sweep on two domains must write a byte-identical trace: each run
# streams into its own spool file, and the spools are merged in run
# order.
smoke:
	dune build bin/e2ebench.exe
	mkdir -p _smoke
	dune exec bin/e2ebench.exe -- sweep --rates 20,60 \
	  --warmup-ms 5 --duration-ms 20 --domains 1 \
	  --trace-out _smoke/trace.jsonl --metrics-out _smoke/metrics.jsonl
	dune exec bin/e2ebench.exe -- inspect _smoke/trace.jsonl --limit 5 \
	  | tee _smoke/inspect.out
	@diff -u test/regress/smoke_inspect.txt _smoke/inspect.out \
	  || { echo "smoke: inspect differs from test/regress/smoke_inspect.txt"; exit 1; }
	@test -s _smoke/metrics.jsonl || { echo "smoke: empty metrics file"; exit 1; }
	dune exec bin/e2ebench.exe -- sweep --rates 20,60 \
	  --warmup-ms 5 --duration-ms 20 --domains 2 \
	  --trace-out _smoke/trace-d2.jsonl > /dev/null
	@cmp -s _smoke/trace.jsonl _smoke/trace-d2.jsonl \
	  || { echo "smoke: sweep trace differs between --domains 1 and 2"; exit 1; }
	# an output path in a missing directory: one line on stderr naming
	# the path, exit 1, and nothing on stdout (the file is opened
	# before any run), for every command that writes a file
	printf 'fleet seed=11 warmup_ms=5 duration_ms=10\ntenant name=a rate_rps=4000\n' \
	  > _smoke/no-dir.scn
	@for cmd in \
	  "run --rate 40 --warmup-ms 5 --duration-ms 10 --trace-out _smoke/no-dir/out" \
	  "run --rate 40 --warmup-ms 5 --duration-ms 10 --metrics-out _smoke/no-dir/out" \
	  "scenario _smoke/no-dir.scn --json _smoke/no-dir/out" \
	  "report _smoke/trace.jsonl --out _smoke/no-dir/out" \
	  "convert _smoke/trace.jsonl _smoke/no-dir/out"; do \
	  ./_build/default/bin/e2ebench.exe $$cmd > _smoke/no-dir.out 2> _smoke/no-dir.err; code=$$?; \
	  if [ $$code -ne 1 ] || [ $$(wc -l < _smoke/no-dir.err) -ne 1 ] \
	    || ! grep -q '_smoke/no-dir/out' _smoke/no-dir.err || [ -s _smoke/no-dir.out ]; then \
	    echo "smoke: '$$cmd' into a missing directory: exit $$code, stdout:"; \
	    cat _smoke/no-dir.out; echo "stderr:"; cat _smoke/no-dir.err; exit 1; fi; \
	done
	@echo "smoke: OK"

# Report smoke: trace two short runs (Nagle on/off), build the HTML
# comparison report from them, and validate the result is a complete
# self-contained document (the report command itself also runs a
# tag-balance check and exits nonzero if its output is malformed).
# Gates: off's e2e p99 is below on's, so the first gate passes (exit
# 0); on's p50 is above off's, so the second fails (exit 1); a
# malformed gate spec is a command-line error (exit 124); a multi-run
# sweep trace on either side fails the gate with one stderr line
# (exit 1), however loose the tolerance.
report-smoke:
	dune build bin/e2ebench.exe
	mkdir -p _smoke
	dune exec bin/e2ebench.exe -- run --rate 40 --nagle off \
	  --warmup-ms 5 --duration-ms 20 --trace-out _smoke/report-off.jsonl > /dev/null
	dune exec bin/e2ebench.exe -- run --rate 40 --nagle on \
	  --warmup-ms 5 --duration-ms 20 --trace-out _smoke/report-on.jsonl > /dev/null
	dune exec bin/e2ebench.exe -- report _smoke/report-off.jsonl \
	  --compare _smoke/report-on.jsonl --out _smoke/report.html
	dune exec bin/e2ebench.exe -- report _smoke/report-off.jsonl --ascii
	./_build/default/bin/e2ebench.exe report _smoke/report-off.jsonl \
	  --compare _smoke/report-on.jsonl --gate e2e:p99:0 --ascii > /dev/null
	@./_build/default/bin/e2ebench.exe report _smoke/report-on.jsonl \
	  --compare _smoke/report-off.jsonl --gate e2e:p50:0 --ascii > /dev/null 2>&1; \
	  code=$$?; [ $$code -eq 1 ] || { echo "report-smoke: failing gate exited $$code, not 1"; exit 1; }
	@./_build/default/bin/e2ebench.exe report _smoke/report-on.jsonl \
	  --compare _smoke/report-off.jsonl --gate e2e:p42:0 --ascii > /dev/null 2>&1; \
	  code=$$?; [ $$code -eq 124 ] || { echo "report-smoke: bad gate spec exited $$code, not 124"; exit 1; }
	dune exec bin/e2ebench.exe -- sweep --rates 20,60 \
	  --warmup-ms 5 --duration-ms 20 --trace-out _smoke/report-sweep.jsonl > /dev/null
	@for pair in "_smoke/report-sweep.jsonl _smoke/report-off.jsonl" \
	  "_smoke/report-off.jsonl _smoke/report-sweep.jsonl"; do \
	  set -- $$pair; \
	  ./_build/default/bin/e2ebench.exe report $$1 --compare $$2 --gate e2e:p99:1e9 \
	    --ascii > /dev/null 2> _smoke/report-gate.err; code=$$?; \
	  if [ $$code -ne 1 ] || [ $$(wc -l < _smoke/report-gate.err) -ne 1 ] \
	    || ! grep -q 'report-sweep.jsonl holds [0-9]* runs' _smoke/report-gate.err; then \
	    echo "report-smoke: gate on a multi-run trace ($$pair) exited $$code:"; \
	    cat _smoke/report-gate.err; exit 1; fi; \
	done
	@test -s _smoke/report.html || { echo "report-smoke: empty report"; exit 1; }
	@grep -q "</html>" _smoke/report.html || { echo "report-smoke: truncated HTML"; exit 1; }
	@grep -q "<svg" _smoke/report.html || { echo "report-smoke: no chart in report"; exit 1; }
	@echo "report-smoke: OK"

# Chaos smoke: a small loss x blackout fault grid with liveness
# invariants checked on every cell (exits nonzero on any violation),
# plus a fault-plan run exercising the --fault-plan path end to end.
chaos-smoke:
	dune build bin/e2ebench.exe
	mkdir -p _smoke
	printf 'loss dir=both prob=0.002\ncorrupt dir=both prob=0.1\n' > _smoke/chaos.fault
	dune exec bin/e2ebench.exe -- run --rate 10 --nagle dynamic \
	  --warmup-ms 5 --duration-ms 40 --fault-plan _smoke/chaos.fault > /dev/null
	dune exec bin/e2ebench.exe -- chaos --losses 0,0.02 --reorders 0 \
	  --blackouts-ms 0,20 > _smoke/chaos-grid.out
	@diff -u test/regress/chaos_grid.txt _smoke/chaos-grid.out \
	  || { echo "chaos-smoke: grid differs from test/regress/chaos_grid.txt"; exit 1; }
	# Zero-window cells: the receive window genuinely closes, and the
	# blackout eats the lone window-update ack — the regime that
	# deadlocked permanently before the persist timer existed.  The
	# bursty-loss column additionally soaks probe recovery under a
	# Gilbert channel (closure/progress invariants).
	dune exec bin/e2ebench.exe -- chaos --losses 0,0.02 --reorders 0 \
	  --blackouts-ms 0,20 --zero-window > _smoke/chaos-zw.out
	@diff -u test/regress/chaos_zero_window.txt _smoke/chaos-zw.out \
	  || { echo "chaos-smoke: grid differs from test/regress/chaos_zero_window.txt"; exit 1; }
	@echo "chaos-smoke: OK"

# Scenario smoke: a two-tenant heterogeneous fleet parsed from the
# declarative grammar, run end to end with a tenant-tagged trace, then
# re-inspected.  Asserts that both tenants appear in the per-tenant
# table and in the trace's tenant breakdown.  Then inputs the line
# readers must refuse (a non-finite fault-plan number, a repeated
# scenario key, an unreadable --rates item): each prints one stderr
# line naming the line or the item, nothing on stdout, and exits 1 for
# a file error or 124 for a flag error.
scenario-smoke:
	dune build bin/e2ebench.exe
	mkdir -p _smoke
	printf '%s\n' \
	  'fleet seed=11 warmup_ms=10 duration_ms=40 scope=per_conn batching=dynamic' \
	  'tenant name=bare conns=2 rate_rps=4000 batching=dynamic' \
	  'tenant name=vm rate_rps=2000 mix=small cpu_mult=4 batching=dynamic' \
	  > _smoke/fleet.scn
	dune exec bin/e2ebench.exe -- scenario _smoke/fleet.scn --print \
	  --trace-out _smoke/fleet-trace.jsonl --json _smoke/fleet.json \
	  | tee _smoke/fleet.out
	@grep -q '^bare ' _smoke/fleet.out || { echo "scenario-smoke: no bare tenant row"; exit 1; }
	@grep -q '^vm ' _smoke/fleet.out || { echo "scenario-smoke: no vm tenant row"; exit 1; }
	@grep -q 'fairness: goodput' _smoke/fleet.out || { echo "scenario-smoke: no fairness line"; exit 1; }
	@grep -q 'final modes: .*bare/c0=' _smoke/fleet.out || { echo "scenario-smoke: no per-conn modes"; exit 1; }
	dune exec bin/e2ebench.exe -- inspect _smoke/fleet-trace.jsonl --limit 0 \
	  | tee _smoke/fleet-inspect.out
	@grep -q 'tenant bare:' _smoke/fleet-inspect.out || { echo "scenario-smoke: trace lost bare tag"; exit 1; }
	@grep -q 'tenant vm:' _smoke/fleet-inspect.out || { echo "scenario-smoke: trace lost vm tag"; exit 1; }
	@test -s _smoke/fleet.json || { echo "scenario-smoke: empty json"; exit 1; }
	printf 'loss prob=nan\n' > _smoke/nan.fault
	printf 'tenant name=a rate_rps=4000 conns=1 conns=5\n' > _smoke/dup-key.scn
	@for case in \
	  "1|fault plan line 1|run --rate 40 --warmup-ms 5 --duration-ms 10 --fault-plan _smoke/nan.fault" \
	  "1|scenario line 1|scenario _smoke/dup-key.scn" \
	  "124|abc|sweep --rates 10,abc --warmup-ms 5 --duration-ms 10"; do \
	  want=$${case%%|*}; rest=$${case#*|}; needle=$${rest%%|*}; cmd=$${rest#*|}; \
	  ./_build/default/bin/e2ebench.exe $$cmd > _smoke/refused.out 2> _smoke/refused.err; code=$$?; \
	  if [ $$code -ne $$want ] || [ $$(wc -l < _smoke/refused.err) -ne 1 ] \
	    || ! grep -qF "$$needle" _smoke/refused.err || [ -s _smoke/refused.out ]; then \
	    echo "scenario-smoke: '$$cmd': exit $$code (want $$want), stdout:"; \
	    cat _smoke/refused.out; echo "stderr:"; cat _smoke/refused.err; exit 1; fi; \
	done
	@echo "scenario-smoke: OK"

# Binary trace smoke: the same run traced as .bin and as .jsonl must
# inspect identically, and convert must round-trip the binary file
# through JSONL byte-for-byte.  A second, scenario trace (per-conn
# dynamic batching, a churn script, two shards) carries the decision,
# churn and LB/shard kinds through the same round trip.
convert-smoke:
	dune build bin/e2ebench.exe
	mkdir -p _smoke
	dune exec bin/e2ebench.exe -- run --rate 40 --nagle dynamic \
	  --warmup-ms 5 --duration-ms 20 --trace-out _smoke/conv.bin > /dev/null
	dune exec bin/e2ebench.exe -- run --rate 40 --nagle dynamic \
	  --warmup-ms 5 --duration-ms 20 --trace-out _smoke/conv.jsonl > /dev/null
	dune exec bin/e2ebench.exe -- inspect _smoke/conv.bin --limit 5 > _smoke/conv-bin.out
	dune exec bin/e2ebench.exe -- inspect _smoke/conv.jsonl --limit 5 > _smoke/conv-jsonl.out
	@diff -u _smoke/conv-jsonl.out _smoke/conv-bin.out \
	  || { echo "convert-smoke: binary and JSONL traces inspect differently"; exit 1; }
	dune exec bin/e2ebench.exe -- convert _smoke/conv.bin _smoke/conv-rt.jsonl
	dune exec bin/e2ebench.exe -- convert _smoke/conv-rt.jsonl _smoke/conv-rt.bin
	@cmp -s _smoke/conv.bin _smoke/conv-rt.bin \
	  || { echo "convert-smoke: binary did not survive the JSONL round-trip"; exit 1; }
	printf '%s\n' \
	  'fleet seed=11 warmup_ms=5 duration_ms=20 scope=per_conn batching=dynamic' \
	  'server cores=2 lb=least_loaded' \
	  'tenant name=churny conns=3 rate_rps=8000 batching=dynamic churn_script=8:+2,14:-2 churn_max=8' \
	  > _smoke/conv.scn
	dune exec bin/e2ebench.exe -- scenario _smoke/conv.scn \
	  --trace-out _smoke/conv-scn.bin > /dev/null
	dune exec bin/e2ebench.exe -- convert _smoke/conv-scn.bin _smoke/conv-scn-rt.jsonl
	@for ev in decision outcome conn_open conn_close lb_assign shard_enq; do \
	  grep -q "\"ev\":\"$$ev\"" _smoke/conv-scn-rt.jsonl \
	    || { echo "convert-smoke: scenario trace has no $$ev record"; exit 1; }; \
	done
	dune exec bin/e2ebench.exe -- convert _smoke/conv-scn-rt.jsonl _smoke/conv-scn-rt.bin
	@cmp -s _smoke/conv-scn.bin _smoke/conv-scn-rt.bin \
	  || { echo "convert-smoke: scenario binary did not survive the JSONL round-trip"; exit 1; }
	@echo "convert-smoke: OK"

# Decision-ledger / SLO-observatory smoke: trace a per-conn dynamic
# fleet, rebuild from the file alone the per-tenant SLO tables, the
# inspect summary, every flip's causal chain and the ASCII report
# (each equal to its golden file under test/regress/), render the
# SLO-panel report, and confirm the no-decisions / no-SLO error paths
# exit 1.
explain-smoke:
	dune build bin/e2ebench.exe
	mkdir -p _smoke
	printf '%s\n' \
	  'fleet seed=11 warmup_ms=10 duration_ms=40 scope=per_conn batching=dynamic' \
	  'tenant name=bare conns=2 rate_rps=4000 batching=dynamic' \
	  'tenant name=vm rate_rps=2000 mix=small cpu_mult=4 batching=dynamic' \
	  > _smoke/explain.scn
	dune exec bin/e2ebench.exe -- scenario _smoke/explain.scn \
	  --trace-out _smoke/explain-trace.bin > /dev/null
	dune exec bin/e2ebench.exe -- slo _smoke/explain-trace.bin \
	  | tee _smoke/explain-slo.out
	@grep -q 'bare/client' _smoke/explain-slo.out || { echo "explain-smoke: no bare SLO row"; exit 1; }
	@grep -q 'vm/client' _smoke/explain-slo.out || { echo "explain-smoke: no vm SLO row"; exit 1; }
	@diff -u test/regress/explain_slo.txt _smoke/explain-slo.out \
	  || { echo "explain-smoke: SLO table differs from test/regress/explain_slo.txt"; exit 1; }
	dune exec bin/e2ebench.exe -- explain _smoke/explain-trace.bin --flip 0 \
	  | tee _smoke/explain-flip.out
	@grep -q 'estimates :' _smoke/explain-flip.out || { echo "explain-smoke: no estimates in chain"; exit 1; }
	@grep -q 'action    :' _smoke/explain-flip.out || { echo "explain-smoke: no action in chain"; exit 1; }
	dune exec bin/e2ebench.exe -- explain _smoke/explain-trace.bin --tenant vm \
	  > /dev/null
	./_build/default/bin/e2ebench.exe inspect _smoke/explain-trace.bin --limit 5 \
	  > _smoke/explain-inspect.out
	./_build/default/bin/e2ebench.exe explain _smoke/explain-trace.bin \
	  > _smoke/explain-flips.out
	./_build/default/bin/e2ebench.exe report _smoke/explain-trace.bin --ascii \
	  > _smoke/explain-report.out
	@for f in inspect flips report; do \
	  diff -u test/regress/explain_$$f.txt _smoke/explain-$$f.out \
	    || { echo "explain-smoke: $$f differs from test/regress/explain_$$f.txt"; exit 1; }; \
	done
	dune exec bin/e2ebench.exe -- report _smoke/explain-trace.bin \
	  --out _smoke/slo-report.html
	@grep -q 'SLO attainment' _smoke/slo-report.html || { echo "explain-smoke: report lacks SLO panel"; exit 1; }
	# error paths: a decision-free trace must fail explain, and a
	# trace without declared SLOs must fail slo — both with exit 1
	dune exec bin/e2ebench.exe -- run --rate 20 --nagle off \
	  --warmup-ms 5 --duration-ms 10 --trace-out _smoke/explain-static.jsonl > /dev/null
	@./_build/default/bin/e2ebench.exe explain _smoke/explain-static.jsonl > /dev/null 2>&1; \
	  code=$$?; [ $$code -eq 1 ] \
	  || { echo "explain-smoke: explain of a decision-free trace exited $$code, not 1"; exit 1; }
	@./_build/default/bin/e2ebench.exe slo /dev/null > /dev/null 2>&1; \
	  code=$$?; [ $$code -eq 1 ] \
	  || { echo "explain-smoke: slo of an empty trace exited $$code, not 1"; exit 1; }
	@echo "explain-smoke: OK"

# Time-varying-load smoke: an envelope + scripted-churn scenario runs
# end to end with a trace, the offline settling table rebuilds from the
# trace's edge records (equal to the golden
# test/regress/churn_slo.txt), and the chaos flash-crowd / churn-storm
# cells assert bounded re-convergence (exit nonzero on any violation).
# The ablation run (--ablate-inherit) must fail: spawned connections
# that re-explore from scratch blow the mode re-convergence bound.
# Every chaos table is diffed against its test/regress/chaos_*.txt.
churn-smoke:
	dune build bin/e2ebench.exe
	mkdir -p _smoke
	printf '%s\n' \
	  'fleet seed=11 warmup_ms=10 duration_ms=40 scope=per_conn' \
	  'tenant name=churny conns=4 rate_rps=20000 batching=dynamic slo_us=500 envelope=square env_period_ms=20 env_duty=0.5 env_high=2 churn_script=20:+2,30:-2 churn_max=32' \
	  > _smoke/churn.scn
	dune exec bin/e2ebench.exe -- scenario _smoke/churn.scn \
	  --trace-out _smoke/churn-trace.bin | tee _smoke/churn.out
	@grep -q '^churny ' _smoke/churn.out || { echo "churn-smoke: no tenant row"; exit 1; }
	dune exec bin/e2ebench.exe -- slo _smoke/churn-trace.bin \
	  | tee _smoke/churn-slo.out
	@grep -q 'settling (1 ms ground-truth buckets' _smoke/churn-slo.out \
	  || { echo "churn-smoke: no settling table from trace"; exit 1; }
	@grep -q 'churny/client .*us' _smoke/churn-slo.out \
	  || { echo "churn-smoke: no per-edge settling row"; exit 1; }
	@diff -u test/regress/churn_slo.txt _smoke/churn-slo.out \
	  || { echo "churn-smoke: SLO/settling table differs from test/regress/churn_slo.txt"; exit 1; }
	dune exec bin/e2ebench.exe -- chaos --flash-crowd --churn-storm \
	  > _smoke/chaos-churn.out
	@diff -u test/regress/chaos_churn.txt _smoke/chaos-churn.out \
	  || { echo "churn-smoke: cells differ from test/regress/chaos_churn.txt"; exit 1; }
	@if ./_build/default/bin/e2ebench.exe chaos --churn-storm --ablate-inherit \
	  > _smoke/chaos-no-inherit.out 2> /dev/null; then \
	  echo "churn-smoke: inheritance ablation passed the gate"; exit 1; fi
	@diff -u test/regress/chaos_no_inherit.txt _smoke/chaos-no-inherit.out \
	  || { echo "churn-smoke: ablation differs from test/regress/chaos_no_inherit.txt"; exit 1; }
	@echo "churn-smoke: OK"

# Sharded-serving smoke: a 10k-connection 4-shard fleet behind the
# least-loaded front LB runs end to end from the scenario grammar,
# the trace rebuilds per-shard slo and inspect breakdowns, and the
# whole run repeats bit-identically (the LB and steering are hashes
# and counters — no rng, so sharding must not perturb determinism).
# Its traces are binary (45 MB each; JSONL would be 137 MB).
scale-smoke:
	dune build bin/e2ebench.exe
	mkdir -p _smoke
	printf '%s\n' \
	  'fleet seed=11 warmup_ms=10 duration_ms=40 scope=per_tenant batching=dynamic' \
	  'server cores=4 lb=least_loaded' \
	  'tenant name=bare conns=6000 rate_rps=40000 batching=dynamic' \
	  'tenant name=vm conns=4000 rate_rps=15000 mix=small cpu_mult=4 batching=dynamic' \
	  > _smoke/scale.scn
	dune exec bin/e2ebench.exe -- scenario _smoke/scale.scn --print \
	  --trace-out _smoke/scale-trace.bin | tee _smoke/scale.out
	@grep -q '^server cores=4 lb=least_loaded' _smoke/scale.out \
	  || { echo "scale-smoke: server directive lost in round-trip"; exit 1; }
	@grep -q '^s0 ' _smoke/scale.out || { echo "scale-smoke: no shard 0 row"; exit 1; }
	@grep -q '^s3 ' _smoke/scale.out || { echo "scale-smoke: no shard 3 row"; exit 1; }
	dune exec bin/e2ebench.exe -- slo _smoke/scale-trace.bin \
	  | tee _smoke/scale-slo.out
	@grep -q 'shard s0:' _smoke/scale-slo.out || { echo "scale-smoke: no per-shard SLO roll-up"; exit 1; }
	dune exec bin/e2ebench.exe -- inspect _smoke/scale-trace.bin --limit 0 \
	  > _smoke/scale-inspect.out
	@grep -q 'shard s0:' _smoke/scale-inspect.out || { echo "scale-smoke: no per-shard inspect section"; exit 1; }
	@grep -q 'shard s3:' _smoke/scale-inspect.out || { echo "scale-smoke: no shard 3 inspect section"; exit 1; }
	# determinism x2: same scenario, byte-identical stdout and trace
	# (the trace-file name appears in stdout, so strip that line)
	dune exec bin/e2ebench.exe -- scenario _smoke/scale.scn --print \
	  --trace-out _smoke/scale-trace2.bin > _smoke/scale2.out
	@grep -v '_smoke/scale-trace' _smoke/scale.out > _smoke/scale.out.norm
	@grep -v '_smoke/scale-trace' _smoke/scale2.out > _smoke/scale2.out.norm
	@cmp -s _smoke/scale.out.norm _smoke/scale2.out.norm \
	  || { echo "scale-smoke: sharded run not deterministic (stdout)"; exit 1; }
	@cmp -s _smoke/scale-trace.bin _smoke/scale-trace2.bin \
	  || { echo "scale-smoke: sharded run not deterministic (trace)"; exit 1; }
	@echo "scale-smoke: OK"

# Allocation gate: one table of probes, each with its ceiling.  Every
# guarded hot-path probe (disabled trace emission, event-heap push/take
# and push/remove, an engine post+step, idle engine polling,
# delayed-ACK bookkeeping, an Rng.int draw, an estimator's estimate
# folded into an aggregate) must measure 0 minor words per op; a
# restarted timer (cancel + schedule) may take its 2-word handle and no
# more, an estimate its result, and a binary trace record nothing; each
# byte-path round trip (a 16 KiB and a 64 B SET and a 16 KiB GET,
# client -> conn -> server and back) must stay within its
# words-per-request ceiling, and building one connection within its
# words-per-connection ceiling.  Writes BENCH_alloc.json; exits nonzero
# and names the probe on any regression.
alloc-gate:
	dune exec bench/main.exe -- alloc

# Trace identity across commits: regenerate the five binary traces named
# in test/regress/trace_digests.txt and compare their MD5s with the
# recorded ones.  The determinism tests compare runs of one build; this
# catches a change that alters simulated behaviour between builds.
trace-identity:
	dune build bin/e2ebench.exe
	mkdir -p _smoke/identity
	dune exec bin/e2ebench.exe -- run --nagle=dynamic --rate=100 --duration-ms=200 \
	  --value-size=64 --trace-out _smoke/identity/trace-64-dynamic.bin > /dev/null
	dune exec bin/e2ebench.exe -- run --nagle=off --rate=50 --duration-ms=100 \
	  --value-size=16384 --trace-out _smoke/identity/trace-16k-off.bin > /dev/null
	dune exec bin/e2ebench.exe -- run --nagle=off --rate=50 --duration-ms=100 \
	  --value-size=16384 --set-ratio=0.95 --trace-out _smoke/identity/trace-16k-mixed.bin > /dev/null
	dune exec bin/e2ebench.exe -- run --conns=3 --loss=0.001 \
	  --trace-out _smoke/identity/trace-conns3-loss.bin > /dev/null
	dune exec bin/e2ebench.exe -- run --fault-plan test/regress/identity.fault \
	  --trace-out _smoke/identity/trace-fault.bin > /dev/null
	cd _smoke/identity && md5sum trace-64-dynamic.bin trace-16k-off.bin \
	  trace-16k-mixed.bin trace-conns3-loss.bin trace-fault.bin > got.md5
	@grep -v '^#' test/regress/trace_digests.txt | diff -u - _smoke/identity/got.md5 \
	  || { echo "trace-identity: traces differ from test/regress/trace_digests.txt"; exit 1; }
	@echo "trace-identity: OK"

# Section 5's overhead claim: Bechamel ns/op of the six estimator hot
# paths (queue-state track and averages, EWMA update, the 36 B exchange
# encode/decode and the 40 B TCP option decode), the table in
# EXPERIMENTS.md "Microbenchmarks".  Wall-clock, so not part of check.
bench-micro:
	dune exec bench/main.exe -- micro

# Headline scale bench: the 100k-connection 4-shard fleet with per-shard
# accounting closure, per-shard dynamic convergence and the hot-shard
# LB-policy comparison; writes BENCH_scale.json and exits nonzero if
# any of those claims fails.
bench-scale:
	dune exec bench/main.exe -- scale

# Wall time per request against connection count (100, 1k and 10k
# connections at 10 req/s each, 4 tenants, 4 shards), median and
# quartiles of 5 repeats; writes BENCH_connscale.json.  Wall-clock, so
# not part of check.
bench-connscale:
	dune exec bench/main.exe -- connscale

clean:
	dune clean
	rm -rf _smoke
