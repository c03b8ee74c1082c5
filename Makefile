# Convenience targets; everything is plain dune underneath.

.PHONY: all build test lint lint-baseline bench fuzz fuzz-smoke sim-smoke service-smoke rmtbench-smoke bench-check attack-record-check outputs examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# Typedtree determinism & safety analysis over lib/ (rules R1-R10; run
# `dune exec bin/rmt_lint.exe -- rules` for the catalog).  Fails on any
# finding not pinned in lint-baseline.txt.  One pass over the .cmt
# files under _build/default/lib, no state kept between runs.  The
# extracted protocol-model (alphabets, decision fields, symbolic send
# bounds) lands in lint-model.json, same payload CI uploads.
lint:
	dune build @check
	dune exec bin/rmt_lint.exe -- check --baseline lint-baseline.txt \
	  --model-out lint-model.json

# Regenerate the baseline, then edit the JUSTIFY placeholders by hand.
lint-baseline:
	dune build @check
	dune exec bin/rmt_lint.exe -- check --baseline lint-baseline.txt \
	  --update-baseline

bench:
	dune exec bench/main.exe

# Regenerate one checked-in record, BENCH_<section>.json, e.g.
# `make bench-core-json` (sections: core attack sim net lint certified).
# The lint section reads the .cmt files that @check leaves behind.
bench-%-json:
	dune build @check
	dune exec bench/main.exe -- $* --json

# Seeded fuzzing campaigns over instances/ (table + BENCH_attack.json).
fuzz:
	dune exec bench/main.exe -- attack --json

# The attack record is deterministic: regenerate BENCH_attack.json and
# fail if any row differs from the committed file, which is put back
# either way.  Only the row lines are compared (domains_available
# depends on the host).  CI's build-and-test job runs it.
attack-record-check:
	dune build bench/main.exe
	cp BENCH_attack.json _build/attack_record_committed.json
	dune exec bench/main.exe -- attack --json; status=$$?; \
	grep '"name"' _build/attack_record_committed.json \
	  > _build/attack_rows_committed.txt; \
	grep '"name"' BENCH_attack.json > _build/attack_rows_regenerated.txt; \
	cp _build/attack_record_committed.json BENCH_attack.json; \
	test $$status -eq 0 && diff -u _build/attack_rows_committed.txt \
	  _build/attack_rows_regenerated.txt

# Quick time-budgeted campaign per instance, as the CI fuzz-smoke job runs it.
fuzz-smoke:
	for inst in instances/*.rmt; do \
	  dune exec bin/rmt_cli.exe -- fuzz --instance $$inst \
	    --seed 2016 --attacks 500 --budget 15 \
	    --out fuzz_reproducer_$$(basename $$inst) || exit 1; \
	done

# Time-budgeted schedule sweep per instance, as the CI sim-smoke job runs
# it: every protocol under seeded timely schedules (where Theorem 4's
# safety is scheduler-independent), shrunk reproducer pair on violation.
# 4 instances x 3 protocols x 200 schedules >= 500 trials overall.
#
# Certified lane: the certified family must stay safe on lossy/async
# schedules *inside* its declared envelope (bound 3, drops 2 =
# Envelope.default).  3 instances x 2 cert protocols x 400 schedules =
# 2400 in-envelope trials; a violation writes a shrunk reproducer pair
# and fails the lane.
#
# Boundary lane: outside the envelope the same protocol must still be
# violable — otherwise the in-envelope claim is vacuous.  The seeded
# out-of-envelope sweep (delay 6, drops 12, aggressive lateness/loss)
# is required to find a violation, shrink it, and leave the reproducer
# pair behind; the lane fails if the sweep exits clean.
sim-smoke:
	for inst in instances/*.rmt; do \
	  dune exec bin/rmt_cli.exe -- sim --instance $$inst \
	    --seed 2016 --schedules 200 --budget 15 --shrink \
	    --out sim_reproducer_$$(basename $$inst) || exit 1; \
	done
	for inst in instances/figure1_basic.rmt instances/path4_unsolvable.rmt \
	    test/protocols/fixtures/boundary.rmt; do \
	  dune exec bin/rmt_cli.exe -- sim --instance $$inst \
	    --protocol certified --seed 2016 --schedules 400 \
	    --bound 3 --drops 2 --shrink \
	    --out sim_reproducer_cert_$$(basename $$inst) || exit 1; \
	done
	if dune exec bin/rmt_cli.exe -- sim \
	    --instance test/protocols/fixtures/boundary.rmt \
	    --protocol cert-pka --seed 19 --schedules 60 \
	    --bound 6 --drops 12 --late 0.6 --loss 0.4 --shrink \
	    --out sim_reproducer_boundary.rmt; then \
	  echo "sim-smoke: out-of-envelope sweep found no violation"; exit 1; \
	else \
	  test -f sim_reproducer_boundary.rmt && test -f sim_reproducer_boundary.sched; \
	fi

# A 2 s run of each end-to-end benchmark workload, as CI's rmtbench
# smoke step runs it: each must exit 0 and end on a result line that
# reports "correct": true, so the benchmark's own output checks (the
# naive-decider cross-check, per-pass fingerprints) guard every kernel.
rmtbench-smoke:
	for w in solve serve attack certified; do \
	  out=$$(python3 rmtbench/run.py --workload $$w --seed 1 --seconds 2 \
	    --trace 0) || exit 1; \
	  last=$$(printf '%s\n' "$$out" | tail -n 1); \
	  case "$$last" in \
	    *'"correct": true'*) echo "rmtbench-smoke: $$w correct" ;; \
	    *) echo "rmtbench-smoke: $$w: $$last"; exit 1 ;; \
	  esac; \
	done

# Replay the committed delta/query stream through the solvability
# service and diff against the golden transcript, as the CI
# service-smoke job runs it.  Then replay the malformed stream (huge and
# negative ids, an unknown command, truncated lines): it must exit
# non-zero and answer every line exactly as its golden transcript says.
service-smoke:
	dune exec bin/rmt_cli.exe -- serve-solve \
	  --instance instances/onion_solvable.rmt \
	  --replay instances/onion_solvable.stream \
	  > /tmp/rmt_service_smoke.out
	diff -u instances/onion_solvable.golden /tmp/rmt_service_smoke.out
	if dune exec bin/rmt_cli.exe -- serve-solve \
	  --instance instances/onion_solvable.rmt \
	  --replay instances/onion_malformed.stream \
	  > /tmp/rmt_service_malformed.out; then \
	  echo "service-smoke: malformed stream exited 0"; exit 1; \
	fi
	diff -u instances/onion_malformed.golden /tmp/rmt_service_malformed.out

# Regenerate every gated record and compare it against the committed
# baseline; which rows are gated, and at what ratio, is the table in
# bench/check_regression.ml.  All five comparisons run; any failure fails.
BENCH_GATED = core lint sim net certified

bench-check:
	dune build @check
	fail=0; for s in $(BENCH_GATED); do \
	  cp BENCH_$$s.json /tmp/rmt_bench_$${s}_baseline.json; \
	  dune exec bench/main.exe -- $$s --json && \
	  dune exec bench/check_regression.exe -- \
	    /tmp/rmt_bench_$${s}_baseline.json BENCH_$$s.json || fail=1; \
	done; exit $$fail

# Run every example and diff its stdout against examples/<name>.expected.
EXAMPLES = quickstart sensor_grid mesh_partial_knowledge network_design \
  poly_time_uniqueness

examples:
	dune build $(EXAMPLES:%=examples/%.exe)
	for e in $(EXAMPLES); do \
	  ./_build/default/examples/$$e.exe > _build/example_$$e.out || exit 1; \
	  diff -u examples/$$e.expected _build/example_$$e.out || exit 1; \
	done

# The deliverable records: full test log and full experiment log.
outputs:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

clean:
	dune clean
