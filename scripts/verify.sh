#!/usr/bin/env bash
# Full offline verification gate for the vermem workspace.
#
# Everything runs with --offline: the workspace has zero registry
# dependencies (see the hermeticity check below), so a network-less
# container must be able to build, test, lint, and format-check from a
# cold checkout.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> hermeticity: no registry dependencies in any Cargo.toml"
# Dependency lines are either `name = { path = ... }` / `name.workspace =
# true` (allowed) or registry forms like `name = "1.0"` / `name = {
# version = ... }` (forbidden). Flag any dependency entry that names a
# version, which only registry (or git) dependencies do.
bad=$(grep -rn --include=Cargo.toml -E '^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*=[[:space:]]*("|.*version[[:space:]]*=)' \
    Cargo.toml crates/*/Cargo.toml \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*(version|edition|license|repository|rust-version|name|description|debug|resolver|harness|path)[[:space:]]*=' \
    || true)
if [[ -n "$bad" ]]; then
    echo "registry-style dependency entries found:" >&2
    echo "$bad" >&2
    exit 1
fi
# Belt and braces: the six crates this workspace replaced must never be
# reintroduced as dependency keys.
for dep in rand proptest criterion crossbeam serde bytes; do
    if grep -rn --include=Cargo.toml -E "^[[:space:]]*${dep}[[:space:]]*(=|\.)" \
        Cargo.toml crates/*/Cargo.toml; then
        echo "forbidden dependency '${dep}' reintroduced" >&2
        exit 1
    fi
done
echo "    ok"

echo "==> one value table per VMC instance"
# Each AddrOps entry numbers its values once, at index build time
# (crates/trace/src/index.rs): the precheck, the Figure 5.3 fast paths,
# the closure and the serialization machine index Vecs by value id. A map
# or set keyed by Value (alone or in a tuple key), or any std HashMap, in
# those files means a per-call value table came back. The one allowed
# site is the index's build-time interning map. A pure text gate, so it
# runs before the build. Comments count too.
vmc_files=(crates/trace/src/index.rs
    crates/coherence/src/{readmap,windows,one_op,rmw,backtrack,machine,write_order}.rs)
bad=$( (grep -nE '(Map|Set)<[[:space:]]*(\([^)]*\bValue\b[^)]*\)|Value\b)' "${vmc_files[@]}" \
        | grep -vE '^crates/trace/src/index.rs:[0-9]+:type Interner = FxHashMap<Value, u32>;$';
    grep -nE '(^|[^A-Za-z_])HashMap' "${vmc_files[@]}") || true)
if [[ -n "$bad" ]]; then
    echo "value-keyed map or std HashMap in a VMC solver (use the entry's value ids):" >&2
    echo "$bad" >&2
    exit 1
fi
# The read-map row reads the entry's value ids, process boundaries and
# refs in place: a copied (OpRef, Op) list or a Csr block graph in
# readmap.rs means the per-call copy and the graph build came back.
bad=$(grep -nE 'Vec<[[:space:]]*\([[:space:]]*OpRef[[:space:]]*,[[:space:]]*Op[[:space:]]*\)[[:space:]]*>|\bCsr\b' \
    crates/coherence/src/readmap.rs || true)
if [[ -n "$bad" ]]; then
    echo "readmap.rs copies the ops or builds a Csr (read AddrOps::ids in place):" >&2
    echo "$bad" >&2
    exit 1
fi
echo "    ok"

echo "==> one simulator core"
# One machine, one protocol: the execution core in crates/sim/src/machine.rs
# holds the scheduler, store buffers, instruction executor, the snooping
# bus's coherence actions, commits and capture. The verifiers read only
# the commit order, so a second protocol adds no verifier input. A second
# scheduler draw, a second `fn execute(` or a second RMW value rule (the
# match in RmwKind::apply) outside the test modules means a second machine
# grew its own run loop. A pure text gate. The retired directory machine's
# names must not come back either.
sim_src=$(awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 }
    !skip { print FILENAME ":" FNR ":" $0 }' crates/sim/src/*.rs)
for pattern in 'CompareAndSwap \{[^}]*\}[[:space:]]*=>' \
    'gen_range\(0\.\.ready\.len\(\)\)' 'fn execute\('; do
    n=$(grep -cE "$pattern" <<< "$sim_src" || true)
    if [[ "$n" != 1 ]]; then
        echo "'$pattern' appears $n times outside tests in crates/sim/src (want exactly 1):" >&2
        grep -E "$pattern" <<< "$sim_src" >&2 || true
        exit 1
    fi
done
if grep -rnwE 'DirectoryMachine|DirectoryConfig|DirState' crates/ src/ tests/ examples/; then
    echo "retired directory machine found (the snooping Machine is the one simulator)" >&2
    exit 1
fi
echo "    ok"

echo "==> one witness evaluator: the sort first, axiom by axiom only on a cycle"
# The reference axiom evaluator (crates/consistency/src/axiom/witness.rs)
# discharges every axiom with one topological sort of the union of the
# base relations the spec mentions (union_acyclic), and evaluates the
# axioms one by one (axiom_by_axiom, over axiom_violated) only when that
# union has a cycle. Outside test code, axiom_violated is called only by
# axiom_by_axiom, and axiom_by_axiom only by violated_axiom, after
# union_acyclic. The one exception is the graph machine's debug-build
# cross-check, the debug_assert in GraphMachine::violated
# (axiom/graph.rs), whose reference stays independent of the sort. A
# second caller fails here. A pure text gate; comments do not count.
python3 - $(find crates/consistency/src -name '*.rs' | sort) <<'EOF'
import re, sys
sites = []
for path in sys.argv[1:]:
    src = open(path).read().split('#[cfg(test)]')[0]
    src = re.sub(r'//[^\n]*', '', src)      # comments
    src = re.sub(r'\buse\s[^;]*;', '', src)  # imports
    debug = []                              # debug_assert argument lists
    for m in re.finditer(r'debug_assert\w*!\s*\(', src):
        depth, j = 0, m.end() - 1
        while True:
            depth += {'(': 1, ')': -1}.get(src[j], 0)
            j += 1
            if depth == 0:
                break
        debug.append((m.start(), j))
    for m in re.finditer(r'\b(axiom_by_axiom|axiom_violated)\b', src):
        if re.search(r'\bfn\s+$', src[:m.start()]):
            continue                        # the definition
        fns = re.findall(r'\bfn\s+(\w+)', src[:m.start()])
        in_debug = any(a <= m.start() < b for a, b in debug)
        sites.append((path, fns[-1] if fns else None, m.group(1), in_debug))
want = [('crates/consistency/src/axiom/graph.rs', 'violated', 'axiom_by_axiom', True),
        ('crates/consistency/src/axiom/witness.rs', 'axiom_by_axiom', 'axiom_violated', False),
        ('crates/consistency/src/axiom/witness.rs', 'violated_axiom', 'axiom_by_axiom', False)]
if sorted(sites) != want:
    sys.exit("the per-axiom evaluation is reached other than through violated_axiom "
             f"or the graph machine's debug_assert:\n  found {sorted(sites)}\n  want  {want}")
src = re.sub(r'//[^\n]*', '', open('crates/consistency/src/axiom/witness.rs').read())
m = re.search(r'\bfn violated_axiom\b[^{]*\{(.*?)\n\}', src, re.S)
if not m or not re.search(r'\bunion_acyclic\(.*\baxiom_by_axiom\(', m.group(1), re.S):
    sys.exit("violated_axiom must run union_acyclic before axiom_by_axiom")
EOF
echo "    ok"

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> second decider on the small-formula reductions (release)"
# Certified SAT must agree with the kernel on Figures 4.1 and 5.2 over
# every formula of two and three variables; its proof checks make this a
# release-only run (crates/reductions/tests/exhaustive_small.rs).
cargo test -q --release --offline -p vermem-reductions --test exhaustive_small -- --ignored

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --offline (warnings denied)"
# rustdoc warnings fail the build through -D warnings; two targets
# documenting to one path is a cargo warning, which does not, so the log
# is searched for it.
doc_log=$(RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace 2>&1 > /dev/null) \
    || { echo "$doc_log" >&2; exit 1; }
if grep -q 'output filename collision' <<< "$doc_log"; then
    echo "$doc_log" >&2
    echo "cargo doc: two targets document to the same path" >&2
    exit 1
fi

echo "==> one speed harness: no wall-clock bench suite, no caller-less SAT layers"
# Speed is measured only by vmcbench (BENCHMARK.json) and the paper's
# claims only by `experiments --json`. The retired wall-clock bench
# harness (its module, macros and `[[bench]]` targets) and the sat crate's
# caller-less CNF preprocessor and Tseitin `Formula` layer must not come
# back. Comments count too.
retired_sites=$(grep -rnF -e 'vermem_util::bench' -e 'criterion_group!' -e '[[bench]]' \
    -e 'solve_with_preprocessing' -e 'preprocess(' -e 'Formula' \
    crates/ src/ tests/ examples/ Cargo.toml vmcbench/Cargo.toml || true)
if [[ -n "$retired_sites" ]]; then
    echo "retired bench harness or SAT layer found:" >&2
    echo "$retired_sites" >&2
    exit 1
fi
echo "    ok"

echo "==> kernel substrate: no private memo plumbing, one search, one model vocabulary"
# The PR-5 contract: the operational searches (VSC/TSO/PSO) run on the
# shared exact-search kernel (crates/coherence/src/kernel.rs), which owns
# the memo table, budget, and cancellation. A `visited: HashSet` (or any
# tuple-keyed HashSet) reappearing in the consistency crate means a solver
# grew its own memoization again. The test oracle (oracle.rs) keeps its
# own set of dead states on purpose: it must share no search code with
# the engines it checks, so it is not a kernel client.
if grep -rn 'visited: HashSet\|HashSet<(' crates/consistency/src; then
    echo "private memo plumbing found in crates/consistency/src (use the kernel)" >&2
    exit 1
fi
# One model vocabulary (ModelId + ModelSpec), one deciding entry point
# (verify_axiom) and one SAT lowering per model (axiom::sat). The retired
# second enum, its bridges, the per-model wrapper modules and entry
# points, the second litmus expectation map, the second engine selector
# and the hand-written serialization SAT encoding must not come back.
retired='MemoryModel\|tso_operational\|pso_operational\|solve_sc_backtracking'
retired+='\|verify_model_operational\|VsccBackend\|base_model\|expected_axiom'
retired+='\|sat_vsc\|solve_model_sat\|VscEncoding\|encode_model'
if grep -rn "$retired" crates/ src/ tests/ examples/; then
    echo "retired model vocabulary, entry point or SAT lowering found (use ModelId + verify_axiom)" >&2
    exit 1
fi
# The serialization oracle is the reference the differential suites hold
# both compilers to, so it must not read what they compile: no spec
# table, no spec registry, no spec-derived schedule checker. Comments
# count too.
if grep -n 'ppo_cross\|preserves\|ModelSpec\|spec(\|check_model_schedule' \
    crates/consistency/src/oracle.rs; then
    echo "crates/consistency/src/oracle.rs reads the model declarations it checks" >&2
    exit 1
fi
# One exact search in the coherence crate: the kernel
# (crates/coherence/src/kernel.rs) owns the only DFS and the only memo
# table; VMC runs on it as the serialization machine at one address
# (crates/coherence/src/machine.rs). A private DFS, a slice
# interner or a tuple-keyed visited set elsewhere means a search grew
# its own memoization again. The retired VMC ablation knobs and its
# private visited-set enum must not come back either.
bad=$(grep -rn 'fn dfs\|SliceInterner\|FxHashSet<(' crates/coherence/src/ \
    | grep -v '^crates/coherence/src/kernel.rs:' || true)
if [[ -n "$bad" ]]; then
    echo "a second search or memo table in crates/coherence/src (use the kernel):" >&2
    echo "$bad" >&2
    exit 1
fi
# Every memo key is built by the kernel's KeyPacker: the retired
# byte-per-process frontier encoder must not come back either. The search
# has one pruning switch (SearchConfig::prune): the per-technique config,
# nogood learning (its canonical keys and twin gate) and the kernel hook
# it alone used must not come back. One serialization machine and one
# refutation hook: the retired second VMC machine, its move type, the
# counted per-state refutation hook and the machine's counted refutation
# must not come back either. Comments count too.
retired_search='greedy_absorption\|hot_move_ordering\|Visited::\|encode_frontier\|frontier_packs'
retired_search+='\|PruneConfig\|nogood_key\|build_nogood_key\|has_twins\|fn exhausted'
retired_search+='\|VmcSystem\|VmcMove\|fn infeasible\|demand_infeasible'
if grep -rn "$retired_search" crates/ src/ tests/ examples/; then
    echo "retired VMC search knob, visited-set enum, frontier key encoder, nogood learning, second VMC machine or counted refutation hook found" >&2
    exit 1
fi
# The serialization machine runs on dense ids: values interned once per
# slot at construction, supply a flat table. A hash map in it means a
# per-state probe came back. Comments count too.
if grep -n 'HashMap' crates/coherence/src/machine.rs crates/consistency/src/axiom/operational.rs; then
    echo "hash map in the serialization machine or its lowering (use the dense value ids)" >&2
    exit 1
fi
echo "    ok"

echo "==> axiom framework: transition systems only in the compilers"
# The PR-10 contract: memory models are declared as ModelSpec data and
# lowered by the two compilers — axiom/operational.rs (onto the shared
# serialization machine, crates/coherence/src/machine.rs) and
# axiom/graph.rs (acyclicity models). A
# TransitionSystem impl anywhere else in the consistency crate means a
# model grew its own hand-rolled search again instead of a ModelSpec
# declaration.
bad=$(grep -rl 'impl TransitionSystem' crates/consistency/src \
    | grep -v -e '^crates/consistency/src/axiom/' || true)
if [[ -n "$bad" ]]; then
    echo "hand-rolled transition systems outside the axiom compilers:" >&2
    echo "$bad" >&2
    exit 1
fi
# One per-state axiom evaluator: the graph machine asks the compiled
# AxiomPlan (axiom/witness.rs). The reference evaluator and its
# axiom-by-axiom half, which rebuilds every relation per call, are
# whole-witness checks; graph.rs may reach them only inside a
# debug_assert (the debug-build cross-check), and the retired per-state
# entry point must not come back. The per-state question is incremental: the kernel
# checks every state before expanding it, so a state's parent has always
# passed, and graph.rs never calls a whole-witness check
# (`plan.violated(`) outside a debug_assert.
if grep -rn 'partial_infeasible' crates/; then
    echo "retired per-state evaluator partial_infeasible found (use AxiomPlan)" >&2
    exit 1
fi
python3 - crates/consistency/src/axiom/graph.rs <<'EOF'
import re, sys
src = open(sys.argv[1]).read()
src = re.sub(r'//[^\n]*', '', src)          # comments
src = re.sub(r'\buse\s[^;]*;', '', src)     # imports
kept, i = [], 0
for m in re.finditer(r'debug_assert\w*!\s*\(', src):
    if m.start() < i:
        continue
    kept.append(src[i:m.start()])
    depth, j = 0, m.end() - 1
    while True:                              # skip the balanced argument list
        depth += {'(': 1, ')': -1}.get(src[j], 0)
        j += 1
        if depth == 0:
            break
    i = j
kept.append(src[i:])
rest = ''.join(kept)
bad = [f for f in ('check_witness_ev', 'violated_axiom', 'axiom_by_axiom', 'push_rel')
       if re.search(r'\b' + f + r'\b', rest)]
if bad:
    sys.exit(f"axiom/graph.rs calls the naive evaluator outside a debug_assert: {bad}")
whole = len(re.findall(r'\bplan\.violated\(', rest))
if whole != 0:
    sys.exit(f"axiom/graph.rs calls the whole-witness plan.violated( {whole} times "
             "outside a debug_assert (expected 0: every parent passed)")
EOF
# One trace layout per verify_axiom check: verify_axiom builds the trace's
# AddrIndex once, and the precheck, every compiled lowering, the RA fast
# tier and the SAT compiler read it. Outside their unit tests, the axiom
# modules never list a trace's addresses, never binary-search an address
# list for a slot, and build an AddrIndex only in axiom/mod.rs.
python3 - crates/consistency/src/axiom/*.rs <<'EOF'
import re, sys
bad = []
for path in sys.argv[1:]:
    src = open(path).read().split('#[cfg(test)]')[0]
    src = re.sub(r'//[^\n]*', '', src)      # comments
    for n, line in enumerate(src.splitlines(), 1):
        if re.search(r'\.addresses\(\)|\bbinary_search', line) or (
                'AddrIndex::build' in line and not path.endswith('/mod.rs')):
            bad.append(f"{path}: {line.strip()}")
if bad:
    sys.exit("a second trace layout under crates/consistency/src/axiom/ "
             "(read the check's AddrIndex):\n" + "\n".join(bad))
EOF
echo "    ok"

echo "==> stream hot path: no SipHash map, one value table per address, no retired dense-map substrate"
# The ingest hot path (every file of the stream engine, the per-address
# placement monitor in online.rs, plus the batch decoder) hashes with the
# in-tree Fx hasher only: a HashMap or HashSet not spelled FxHashMap or
# FxHashSet, or any RandomState, is a SipHash table. No file is exempt,
# and neither are comments.
hash_sites=$(find crates/coherence/src/stream/ crates/coherence/src/online.rs \
    crates/trace/src/binary.rs -name '*.rs' -exec awk '{
        line = $0; gsub(/FxHash(Map|Set)/, "", line)
        if (line ~ /Hash(Map|Set)|RandomState/) print FILENAME ":" FNR ": " $0
    }' {} +)
if [[ -n "$hash_sites" ]]; then
    echo "SipHash map or set on the stream hot path (use FxHashMap/FxHashSet):" >&2
    echo "$hash_sites" >&2
    exit 1
fi
# One §5.2 placement monitor: OnlineVerifier and the stream engine share
# online.rs's PlacementMonitor, so the coherence crate defines exactly one
# deferred-read type.
pending_defs=$(grep -rn 'struct PendingRead' crates/coherence/src/ || true)
if [[ $(grep -c . <<<"$pending_defs") -ne 1 ]]; then
    echo "expected exactly one struct PendingRead in crates/coherence/src, found:" >&2
    echo "$pending_defs" >&2
    exit 1
fi
# One value table per address: the placement monitor's `FxHashMap<u64, _>`
# (value → row) both places reads and detects a value written twice, so
# the stream engine declares no value-keyed map of its own and online.rs
# declares exactly one. Comments count too.
stream_value_maps=$(grep -rn 'FxHashMap<u64' crates/coherence/src/stream/ || true)
online_value_maps=$(grep -n 'FxHashMap<u64' crates/coherence/src/online.rs || true)
if [[ -n "$stream_value_maps" || $(grep -c . <<<"$online_value_maps") -ne 1 ]]; then
    echo "expected no FxHashMap<u64 under crates/coherence/src/stream/ and exactly one in online.rs, found:" >&2
    echo "$stream_value_maps" >&2
    echo "$online_value_maps" >&2
    exit 1
fi
# One hash map implementation: the hand-written open-addressing map, its
# key trait, slab, collection recycler and their module must not come
# back (the stream tables are std maps on the Fx hasher). Comments count
# too.
dense_sites=$(grep -rnF -e 'densemap' -e 'DenseMap' -e 'DenseKey' -e 'Slab<' -e 'Arena<' \
    -e 'Recycle' crates/ src/ tests/ examples/ || true)
if [[ -n "$dense_sites" ]]; then
    echo "retired dense-map substrate found (use vermem_util::hash::FxHashMap):" >&2
    echo "$dense_sites" >&2
    exit 1
fi
echo "    ok"

echo "==> VMC frontline: no hash set in the closure fixpoint"
# The closure fixpoint answers must-precede edge membership from a bit
# matrix (deep mode) or an adjacency-list scan, never a hash set. (The
# read-map fast path binds ops to blocks by value id: the "one value
# table per VMC instance" gate covers it.) Comments count too.
frontline_sites=$(grep -Hn 'HashSet' crates/coherence/src/windows.rs || true)
if [[ -n "$frontline_sites" ]]; then
    echo "hashing on the VMC frontline:" >&2
    echo "$frontline_sites" >&2
    exit 1
fi
echo "    ok"

echo "==> one VMC instance: every coherence decider takes an AddrOps"
# An `AddrOps` is the paper's VMC instance (Definition 4.1: one address's
# histories plus d_I and d_F), so the Figure 5.3 fast paths, the SAT
# encoder, the exact search, the write-order decider and the core
# minimizer take one. In these modules only `solve_sat_certified` indexes
# a trace itself, kept because the vmcbench harness links it. The
# detached second dispatch entry must not come back either. Comments
# count too.
trace_fns() {
    perl -0777 -ne 'while (/pub fn (\w+)[^{;]*?\b\w+: &(?:\w+::)*Trace\b/g) { print "$ARGV: $1\n" }' \
        "$@"
}
fast_path_fns=$(trace_fns crates/coherence/src/{readmap,one_op,rmw,explain,backtrack,machine,write_order}.rs)
sat_fns=$(trace_fns crates/coherence/src/sat_encode.rs)
detached_sites=$(grep -rn 'verify_ops_detached' crates/ || true)
if [[ -n "$fast_path_fns" || "$sat_fns" != "crates/coherence/src/sat_encode.rs: solve_sat_certified" \
    || -n "$detached_sites" ]]; then
    echo "a VMC decider takes (trace, addr), or the detached entry is back:" >&2
    echo "$fast_path_fns" >&2
    echo "$sat_fns" >&2
    echo "$detached_sites" >&2
    exit 1
fi
# One trace view: a per-address question goes through an AddrOps. The
# retired second view (trace and history projections, trace-level
# classifiers, the read-map helpers, the boolean schedule checks and the
# (trace, addr) exact-search wrappers) must not come back, nor must the
# caller-less cancellable model entry point or a per-module flag for
# final values on untouched addresses (every view lists such an address
# as an instance with no operations). Only the
# retired forms are matched: names no live item shares anywhere (comments
# count too), definitions of the common-word names in the trace crate
# (outside index.rs, where AddrOps keeps `max_ops_per_proc`), paths into
# vermem_trace, and method or function calls. A local variable
# or comment that merely shares a common word does not trip the gate.
retired_unique='readmap_util|ReadSource|projection_map|is_coherent_schedule|solve_backtracking_with_stats'
retired_unique+='|is_sc_schedule|verify_axiom_with|finals_unmatched'
retired_defs='project|projection_map|is_single_address|is_all_rmw|max_ops_per_proc|writes_per_value'
retired_defs+='|write_count|read_count|written_values|read_mapping|write_orders'
retired_calls='project|projection_map|is_single_address|is_all_rmw|writes_per_value'
retired_calls+='|write_count|read_count|written_values'
view_sites=$( { grep -rnwE "$retired_unique" crates/ src/ tests/ examples/
    grep -rnE --exclude=index.rs "fn ($retired_defs)\b" crates/trace/src/
    grep -rnE 'vermem_trace::(read_mapping|write_orders)\b' crates/ src/ tests/ examples/
    grep -rnE "\.($retired_calls)\(" crates/ src/ tests/ examples/
    grep -rnE '\bsolve_backtracking\(|InstanceProfile::of\(' crates/ src/ tests/ examples/; } || true)
if [[ -n "$view_sites" ]]; then
    echo "retired trace-level view, (trace, addr) search wrapper, cancellable model entry point or final-value flag found:" >&2
    echo "$view_sites" >&2
    exit 1
fi
echo "    ok"

echo "==> one schedule checker: the value and final rules live in check_coherent_schedule_ops"
# Theorem 4.2's certificate checker is written once. Every whole-trace
# serialization check (check_sc_schedule, check_model_schedule, the
# certificates of verify_axiom) is check_serialization: the one-address
# check at each address plus a cross-address program-order pass. So,
# outside ScheduleError's Display impl and test code, each value-rule
# error is built at exactly one site, inside check_coherent_schedule_ops,
# and the retired whole-trace structure check must not come back
# (comments count for that name).
if grep -rn 'check_structure' crates/ src/ tests/ examples/; then
    echo "retired whole-trace schedule structure check found (use check_serialization)" >&2
    exit 1
fi
python3 - $(find crates/*/src src examples -name '*.rs') <<'EOF'
import re, sys
sites = {'ReadValue': [], 'FinalValue': []}
for path in sys.argv[1:]:
    src = open(path).read().split('#[cfg(test)]')[0]
    src = re.sub(r'//[^\n]*', '', src)      # comments
    m = re.search(r'impl\s+(?:std::)?fmt::Display\s+for\s+ScheduleError\s*\{', src)
    if m:                                   # drop the Display impl
        depth, j = 1, m.end()
        while depth:
            depth += {'{': 1, '}': -1}.get(src[j], 0)
            j += 1
        src = src[:m.start()] + src[j:]
    for m in re.finditer(r'ScheduleError::(ReadValue|FinalValue)\s*\{', src):
        fns = re.findall(r'\bfn\s+(\w+)', src[:m.start()])
        sites[m.group(1)].append((path, fns[-1] if fns else None))
want = [('crates/trace/src/schedule.rs', 'check_coherent_schedule_ops')]
bad = {k: v for k, v in sites.items() if v != want}
if bad:
    sys.exit("expected ScheduleError::ReadValue and ::FinalValue each built once, in "
             f"check_coherent_schedule_ops; found: {bad}")
EOF
echo "    ok"

echo "==> obs hot path: exactly one clock-read site in crates/util/src/obs/"
# The zero-overhead-when-off contract (DESIGN.md §Observability): every
# clock read funnels through obs::now_us(), which is only reached from
# enabled branches. Any other Instant::now() in the obs tree is a bug.
clock_sites=$(grep -rn 'Instant::now' crates/util/src/obs/ \
    | grep -cvE ':[0-9]+:[[:space:]]*//' || true)
if [[ "$clock_sites" -ne 1 ]]; then
    echo "expected exactly 1 Instant::now code site in crates/util/src/obs/, found ${clock_sites}:" >&2
    grep -rn 'Instant::now' crates/util/src/obs/ | grep -vE ':[0-9]+:[[:space:]]*//' >&2
    exit 1
fi
echo "    ok"

echo "==> experiments --json: deterministic receipt, byte-equal to the committed one"
# Every field of BENCH_vmc.json is a work count, a verdict class or a
# boolean, so a fresh run must reproduce the committed file exactly: any
# drift in a prune counter, tier split, model verdict class or stream peak
# fails here. The semantic gates (frontline shares, litmus model order,
# prune ratio, stream memory bounds, no unknown verdicts) are asserts in the
# harness, so the run itself fails first if one breaks. Wall-clock
# performance is gated by vmcbench (BENCHMARK.json).
tmp=$(mktemp -d)
(cd "$tmp" && "$OLDPWD/target/release/experiments" --json > /dev/null)
if ! cmp -s "$tmp/BENCH_vmc.json" BENCH_vmc.json; then
    echo "fresh receipt differs from the committed BENCH_vmc.json:" >&2
    diff "$tmp/BENCH_vmc.json" BENCH_vmc.json >&2 || true
    exit 1
fi
rm -rf "$tmp"

echo "==> EXPERIMENTS.md carries every receipt table row"
python3 scripts/receipt_tables.py BENCH_vmc.json --check EXPERIMENTS.md

echo "==> --trace-out emits a Perfetto-loadable Chrome trace"
tmp=$(mktemp -d)
target/release/vermem sim --verify --trace-out "$tmp/sim.trace.json" > /dev/null
python3 - "$tmp/sim.trace.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
ev = d["traceEvents"]
assert ev, "no trace events"
assert all(e["ph"] in ("X", "C") for e in ev), "unexpected phase"
assert all(e["pid"] == 1 and e["tid"] >= 1 for e in ev), "pid/tid shape"
ts = [e["ts"] for e in ev]
assert ts == sorted(ts), "ts must be monotonic"
names = {e["name"] for e in ev}
assert "sim.run" in names and "verify.execution" in names, names
durs = [e for e in ev if e["ph"] == "X"]
assert all("dur" in e and e["dur"] >= 0 for e in durs), "X events need dur"
print(f"    ok ({len(ev)} events, {len(names)} distinct names)")
EOF
rm -rf "$tmp"

echo "==> vermem serve: streaming engine smoke (healthy + fault-injected)"
out=$(target/release/vermem serve --streams 2 --instrs 60 --window 64 --jobs 1)
grep -q "# serve: 2 stream(s), 0 incoherent" <<<"$out" \
    || { echo "serve healthy run not coherent:" >&2; echo "$out" >&2; exit 1; }
out=$(target/release/vermem serve --streams 3 --instrs 60 --fault --window 32)
grep -q "VIOLATION at address" <<<"$out" \
    || { echo "serve fault run surfaced no violation:" >&2; echo "$out" >&2; exit 1; }
echo "    ok"

echo "==> vermem serve --obs-addr: rust-test fetch on an ephemeral port (no curl)"
# The introspection-server suite binds 127.0.0.1:0 and fetches /metrics,
# /healthz and /snapshot.json over a raw TcpStream from the test itself.
cargo test -q --offline -p vermem-cli obs_server:: > /dev/null
echo "    ok"

echo "==> vermem serve --obs-addr: live Prometheus scrape shape check"
tmp=$(mktemp -d)
port=47613
# ~3.5s wall: ~1.3s input synthesis before the bind, then ~2.2s of live
# verification the scraper races against (it polls the port from t=0).
target/release/vermem serve --streams 8 --instrs 800000 --jobs 1 \
    --obs-addr "127.0.0.1:$port" > "$tmp/serve.out" &
serve_pid=$!
python3 - "$port" <<'EOF'
import json, re, socket, sys, time

port = int(sys.argv[1])

def fetch(path):
    for _ in range(400):
        try:
            s = socket.create_connection(("127.0.0.1", port), timeout=1)
            break
        except OSError:
            time.sleep(0.025)
    else:
        sys.exit("obs server never accepted a connection")
    s.sendall(f"GET {path} HTTP/1.1\r\nHost: v\r\nConnection: close\r\n\r\n"
              .encode())
    data = b""
    while chunk := s.recv(4096):
        data += chunk
    s.close()
    head, _, body = data.partition(b"\r\n\r\n")
    assert b" 200 OK" in head.splitlines()[0], head
    return body.decode()

metrics = fetch("/metrics")
# Prometheus text format 0.0.4: every family has a `# TYPE` comment and
# every sample line is `name[{le="..."}] value`.
families = set()
for line in metrics.splitlines():
    if line.startswith("# TYPE "):
        families.add(line.split()[2])
        continue
    assert not line.startswith("#"), repr(line)
    m = re.match(
        r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="[^"]+"\})? (-?\d+(\.\d+)?)$', line)
    assert m, f"bad metrics line: {line!r}"
    base = re.sub(r'_(bucket|sum|count)$', '', m.group(1))
    assert m.group(1) in families or base in families, \
        f"sample without TYPE comment: {line!r}"
assert "vermem_serve_streams" in families, sorted(families)
assert "vermem_serve_events_total" in families, sorted(families)
assert "vermem_serve_chunk_ingest_us" in families, sorted(families)

health = json.loads(fetch("/healthz"))
assert health["status"] in ("ok", "incoherent"), health
assert len(health["streams"]) == 8, health
for row in health["streams"]:
    assert set(row) == {"name", "events", "detections", "verdict", "done"}, row

print(f"    ok ({len(families)} metric families, "
      f"{sum(r['done'] for r in health['streams'])}/8 streams done at scrape)")
EOF
wait "$serve_pid"
grep -q "# obs: serving on 127.0.0.1:$port" "$tmp/serve.out" \
    || { echo "serve printed no '# obs:' line:" >&2; cat "$tmp/serve.out" >&2; exit 1; }
grep -q "# serve: 8 stream(s)" "$tmp/serve.out" \
    || { echo "serve aggregate line missing:" >&2; cat "$tmp/serve.out" >&2; exit 1; }
rm -rf "$tmp"

echo "==> vermem serve --forensics: flight-recorder bundles are valid JSONL"
tmp=$(mktemp -d)
out=$(target/release/vermem serve --streams 3 --instrs 60 --fault --window 32 \
    --forensics "$tmp/forensics")
grep -q "VIOLATION at address" <<<"$out" \
    || { echo "forensics fault run surfaced no violation:" >&2; echo "$out" >&2; exit 1; }
python3 - "$tmp/forensics" <<'EOF'
import json, os, sys
d = sys.argv[1]
files = sorted(os.listdir(d)) if os.path.isdir(d) else []
assert files, "no forensic JSONL files written"
bundles = 0
for name in files:
    assert name.endswith(".forensics.jsonl"), name
    for line in open(os.path.join(d, name)):
        b = json.loads(line)
        assert b["schema"] == "vermem-forensic/v1", b["schema"]
        assert b["cause"] in ("rmw-mismatch", "window-closed", "end-of-stream")
        assert b["detected_at"] >= b["issued_at"] >= 0, b
        assert b["latency_us"] >= 0 and isinstance(b["window_ops"], list), b
        assert b["tier"] in ("frontline", "exact", None), b
        bundles += 1
print(f"    ok ({bundles} bundle(s) across {len(files)} stream file(s))")
EOF
rm -rf "$tmp"

echo "==> all checks passed"
