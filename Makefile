.PHONY: all build test examples smoke sweep-check seed-sweep golden-update \
	hotpath-check ci clean

# Cell-level parallelism for the experiment sweeps below. Output and
# trace exports are byte-identical at any value (see DESIGN.md §11), so
# JOBS only changes wall-clock: `make smoke JOBS=4`.
JOBS ?= 1

all: build

build:
	dune build

test: build
	dune runtest

# Run every example end to end; a non-zero exit fails the target. Each
# example's output goes to _build/examples/<name>.out.
examples: build
	mkdir -p _build/examples
	for e in quickstart vm_startup_storm latency_colocation dp_boost; do \
	  ./_build/default/examples/$$e.exe > _build/examples/$$e.out || exit 1; \
	done

# Fast end-to-end check for CI: full build + unit/property suites and
# the examples, then a small traced fig12 run whose JSON export must
# parse and satisfy the occupancy invariant (trace_lint exits non-zero
# otherwise), then a short chaos run — the seeded fault matrix with the
# Core_state audit, the hung-vCPU watchdog oracle and trace_lint as
# pass/fail gates — then the overload storm, whose export additionally
# exercises trace_lint's ladder checks (transition sequence, one rung at
# a time, minimum dwell), then the multitenant grid, whose export
# exercises trace_lint's per-tenant lane checks (registered — possibly
# sparse — ids, non-negative rows, per-tenant sums equal to the
# globals), then the churn grid, whose export exercises the frozen-lane
# rule (no overload transitions after a tenant's retirement marker),
# then the fleet grid restricted to the 8-NIC failover-on cells, whose
# per-NIC exports exercise trace_lint's fleet checks (".nic<NN>" labels,
# recv-side cross-NIC causality, non-negative fleet.* counters).
smoke: test examples
	dune exec bin/taichi_sim.exe -- fig12 --seed 42 --scale 0.05 \
		--jobs $(JOBS) --trace-json _build/smoke-trace.json
	dune exec bin/trace_lint.exe -- _build/smoke-trace.json
	dune exec bin/taichi_sim.exe -- chaos --seed 42 --scale 0.1 \
		--jobs $(JOBS) --trace-json _build/chaos-trace.json
	dune exec bin/trace_lint.exe -- _build/chaos-trace.json
	dune exec bin/taichi_sim.exe -- overload --seed 42 --scale 0.25 \
		--jobs $(JOBS) --trace-json _build/overload-trace.json
	dune exec bin/trace_lint.exe -- _build/overload-trace.json
	dune exec bin/taichi_sim.exe -- multitenant --seed 42 --scale 0.25 \
		--jobs $(JOBS) --trace-json _build/multitenant-trace.json
	dune exec bin/trace_lint.exe -- _build/multitenant-trace.json
	dune exec bin/taichi_sim.exe -- churn --seed 42 --scale 0.25 \
		--jobs $(JOBS) --churn-profile steady \
		--trace-json _build/churn-trace.json
	dune exec bin/trace_lint.exe -- _build/churn-trace.json
	dune exec bin/taichi_sim.exe -- fleet --seed 42 --scale 0.25 \
		--jobs $(JOBS) --nics 8 --failover on \
		--trace-json _build/fleet-trace.json
	dune exec bin/trace_lint.exe -- _build/fleet-trace.json

# The sweep determinism contract, end to end through the real CLI: the
# same experiment at --jobs 1 and --jobs 4 must produce byte-identical
# stdout (modulo the export path echoed in the final line) and
# byte-identical taichi-trace-v1 JSON, which must also lint clean.
sweep-check: build
	mkdir -p _build/sweep
	dune exec bin/taichi_sim.exe -- fig17 --seed 42 --jobs 1 \
		--trace-json _build/sweep/j1.json > _build/sweep/j1.out
	dune exec bin/taichi_sim.exe -- fig17 --seed 42 --jobs 4 \
		--trace-json _build/sweep/j4.json > _build/sweep/j4.out
	cmp _build/sweep/j1.json _build/sweep/j4.json
	sed 's|_build/sweep/j1.json|TRACE|' _build/sweep/j1.out > _build/sweep/j1.norm
	sed 's|_build/sweep/j4.json|TRACE|' _build/sweep/j4.out > _build/sweep/j4.norm
	cmp _build/sweep/j1.norm _build/sweep/j4.norm
	dune exec bin/trace_lint.exe -- _build/sweep/j4.json

# Every beyond-paper oracle across seeds: overload, churn, chaos,
# multitenant and fleet at seeds 1-30, --scale 0.25, one
# "<experiment> <seed> ok|fail" line per run (each run's output goes to
# _build/seed-sweep/). The list must match test/seed-sweep.expected,
# which records the known failures, so both a new failure and an
# unrecorded fix make this target fail.
seed-sweep: build
	mkdir -p _build/seed-sweep
	for e in overload churn chaos multitenant fleet; do \
	  for s in $$(seq 1 30); do \
	    if ./_build/default/bin/taichi_sim.exe $$e --seed $$s --scale 0.25 \
	      --jobs $(JOBS) > _build/seed-sweep/$$e-$$s.log 2>&1; \
	    then echo "$$e $$s ok"; else echo "$$e $$s fail"; fi; \
	  done; \
	done > _build/seed-sweep.out
	diff test/seed-sweep.expected _build/seed-sweep.out

# Re-promote every committed golden digest under test/golden: the tier-1
# stdout digests and the three CI digest files. Dune prints the lines that
# changed and promotes them; the second build then checks the promoted
# files.
golden-update: build
	dune build @test/golden/runtest @test/golden/golden-ci --auto-promote \
		|| dune build @test/golden/runtest @test/golden/golden-ci

# The per-event path must compile to monomorphic, cross-module-optimised
# code (DESIGN.md §16, "What the compiler sees"). Fails when an archive
# of the ten per-event libraries references a polymorphic comparison,
# Stdlib's polymorphic min/max, or a Stdlib List function that compares
# through the polymorphic compare inside Stdlib (mem, assoc, assoc_opt,
# mem_assoc, remove_assoc), each a C call per use or per element (write
# Int.min, Int.max, a typed equal, a match or a recursive helper over
# Int.equal/String.equal instead), or when dune compiles a library
# module with -opaque or without -strict-sequence, that is, without the
# dune-workspace profile and its warning flags. faults, fleet and
# platform are left out: they run per fault, per epoch or per cell, not
# per event.
HOTPATH_LIBS = engine accel hw os virt core dataplane controlplane \
	workloads metrics
POLY_SYMS = caml_(equal|notequal|lessthan|lessequal|greaterthan|greaterequal|compare)|camlStdlib[.](min|max)_[0-9]+|camlStdlib__List[.](mem|assoc|assoc_opt|mem_assoc|remove_assoc)_[0-9]+

hotpath-check: build
	@status=0; \
	for d in $(HOTPATH_LIBS); do \
	  a=_build/default/lib/$$d/taichi_$$d.a; \
	  if [ ! -f $$a ]; then echo "$$a: missing"; status=1; fi; \
	  if nm -u -A $$a | grep -E " ($(POLY_SYMS))$$"; then status=1; fi; \
	  rules=$$(dune rules -r _build/default/lib/$$d/taichi_$$d.cmxa); \
	  if echo "$$rules" | grep -q -- -opaque; then \
	    echo "lib/$$d: a module is compiled with -opaque"; status=1; fi; \
	  if ! echo "$$rules" | grep -q -- -strict-sequence; then \
	    echo "lib/$$d: compiled without -strict-sequence"; status=1; fi; \
	done; \
	exit $$status

ci: hotpath-check smoke sweep-check

clean:
	dune clean
