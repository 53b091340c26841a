#!/usr/bin/env bash
# Structural gates: code that stays deleted, entry points that keep their
# one caller, and dependencies that stay out. One line per gate: the commit
# that added it (or what it guards), then why it holds. Run from the
# repository root:
#
#     bash ci/gates.sh
#
# Every gate runs; the script lists each failure and exits 1 if any failed.
set -uo pipefail

failed=0
fail() { echo "gate failed: $1" >&2; failed=1; }

# absent WHY REGEX PATH... — the extended regex matches no line under PATH
# (a path grep cannot read fails the gate too).
absent() {
    local why=$1 re=$2; shift 2
    grep -rnE -- "$re" "$@"
    [ $? -eq 1 ] || fail "$why"
}

# lines WHY N REGEX PATH... — the regex matches exactly N lines under PATH.
lines() {
    local why=$1 n=$2 re=$3; shift 3
    local hits; hits=$(grep -rnE -- "$re" "$@")
    echo "$hits"
    if [ "$(grep -c . <<<"$hits")" -ne "$n" ]; then fail "$why"; fi
}

# only_in WHY REGEX ALLOWED PATH... — every match lies in a file whose path
# matches the extended regex ALLOWED.
only_in() {
    local why=$1 re=$2 allowed=$3; shift 3
    if grep -rnE -- "$re" "$@" | grep -vE "^($allowed)"; then fail "$why"; fi
}

# signature_lacks WHY FN REGEX FILE — the eight lines from `fn FN(` on do not
# match the regex.
signature_lacks() { if grep -A8 "fn $2(" "$4" | grep -E -- "$3"; then fail "$1"; fi; }

# no_dep WHY CRATE DEP — CRATE does not depend on DEP directly.
no_dep() {
    if cargo tree -p "$2" -e normal --depth 1 --offline | grep -w -- "$3"; then fail "$1"; fi
}

# unread_pub WHY HOOKS — every `pub` item declared in the production text of
# crates/*/src and src/ (comment lines and #[cfg(test)] items stripped) is
# named, as a word, in the production text of another crate: another
# crates/*/src, a crate's src/bin (its own crate), src/ or benchmark/src. A
# `pub use` re-export names nothing; a `$crate::` path in a macro body is
# read wherever the macro expands; a type named in its own crate's pub
# signature — a pub fn, const, static, type or struct head, a pub field, a
# pub enum or trait body — is read through that signature, and rustc keeps
# it pub (private_interfaces). The workspace turns on rustc's
# unreachable_pub, so a `pub` item is one its crate's root reaches, and
# dead_code checks the rest. HOOKS lists the exceptions as `name@test-file`
# entries: pub items only tests read. An entry is stale, and fails the
# gate, when the name has a production reader or its test file no longer
# names it. A word grep: a same-named item in another crate counts as a
# reader.
unread_pub() {
    local why=$1 entry name hits
    hits=$(find crates/*/src src benchmark/src -name '*.rs' | sort | xargs awk '
        function crate_of(f,   p) {
            split(f, p, "/")
            if (p[1] == "crates") return (p[4] == "bin") ? p[2] "/bin" : p[2]
            return p[1]
        }
        function words(s, exposing,   w) {
            while (match(s, /[A-Za-z_][A-Za-z0-9_]*/)) {
                w = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
                if (exposing != "") { if (w != exposing) exposed[w, crate] = 1 }
                else if (!((w, crate) in seen)) { seen[w, crate] = 1; readers[w] = readers[w] " " crate }
            }
        }
        FNR == 1 { skip = 0; crate = crate_of(FILENAME); sig = 0; body = 0; reexport = 0 }
        skip {
            c = $0; depth += gsub(/\{/, "", c) - gsub(/\}/, "", c)
            if (index($0, "{")) opened = 1
            if ((opened && depth <= 0) || (!opened && /;[[:space:]]*$/)) skip = 0
            next
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
        /^[[:space:]]*\/\// { next }
        {
            s = $0
            while (match(s, /\$crate::[A-Za-z0-9_:]+/)) {
                n = split(substr(s, RSTART + 8, RLENGTH - 8), seg, "::"); s = substr(s, RSTART + RLENGTH)
                for (i = 1; i <= n; i++) readers[seg[i]] = readers[seg[i]] " $crate"
            }
            if (/^[[:space:]]*pub use /) reexport = 1
            if (reexport) { if (index($0, ";")) reexport = 0; next }
            name = "-"
            if (crate != "benchmark" && match($0, /^[[:space:]]*pub (const |async |unsafe )*(fn|struct|enum|trait|type|const|static|mod) [A-Za-z_][A-Za-z0-9_]*/)) {
                name = substr($0, RSTART, RLENGTH); sub(/.* /, "", name)
                defs[name, crate] = FILENAME
                if (/pub (enum|trait) /) { body = 1; bdepth = 0 } else sig = 1
            }
            if (sig || body || /^[[:space:]]*pub [a-z_][a-z0-9_]*:/) words($0, name)
            if (sig && (index($0, "{") || /;[[:space:]]*$/)) sig = 0
            if (body) {
                c = $0; bdepth += gsub(/\{/, "", c) - gsub(/\}/, "", c)
                if (bdepth <= 0 && index($0, "}")) body = 0
            }
            words($0, "")
        }
        END {
            for (k in defs) {
                split(k, p, SUBSEP)
                if (exposed[p[1], p[2]]) continue
                n = split(readers[p[1]], r, " "); read = 0
                for (i = 1; i <= n; i++) if (r[i] != p[2]) read = 1
                if (!read) print p[1] " " defs[k]
            }
        }' | sort)
    for entry in $2; do
        name=${entry%@*}
        grep -qw -- "$name" "${entry#*@}" || fail "$why (stale hook: ${entry#*@} does not name $name)"
        grep -q "^$name " <<<"$hits" || fail "$why (stale hook: $name has a production reader or is gone)"
        hits=$(grep -v "^$name " <<<"$hits")
    done
    if [ -n "$hits" ]; then echo "$hits"; fail "$why"; fi
}

no_dep "f2dece8: klotski-core draws no random numbers (the §7 loop and its dice live in klotski-controller)" klotski-core rand
absent "b0fa95e: one lock policy in the daemon — poison handling lives in locked() (crates/service/src/lib.rs)" 'lock\(\)\.unwrap\(\)' crates/service/src
absent "9db143b: both planners check one state at a time through SatChecker::check; the batch entry point and its staged parent rebase stay deleted" 'check_batch_from|pending_parent' crates src tests
absent "964d3cb: LiveEngine is the one wrapper over the incremental engine; the planning-only wrapper stays deleted" 'ChainRouter' crates src tests
lines "964d3cb: the Eq. 6 recount is oracle-only — in production it has two lines" 2 'has_port_violation\(' crates/*/src
lines "964d3cb: the Eq. 6 recount is oracle-only — one line is its definition" 1 'pub fn has_port_violation\(' crates/topology/src/graph.rs
lines "964d3cb: the Eq. 6 recount is oracle-only — the other the engine's debug assertion against its kept degrees" 1 'debug_assert_eq!\(.*has_port_violation\(' crates/core/src/replay.rs
absent "d93f7bd: an ensemble check clears members by the headroom bound and sweeps the rest one lane at a time; the packed K-lane sweep stays deleted" 'PackedLoads|evaluate_packed|summarize_packed|apply_packed|last_packed_loads|route_ensemble' crates src tests
absent "6a1e8f4: the routing engine and the worker pool return counts and write to no registry" 'klotski_telemetry' crates/routing/src crates/parallel/src
no_dep "6a1e8f4: klotski-routing publishes nothing, so it does not link telemetry" klotski-routing klotski-telemetry
no_dep "6a1e8f4: klotski-parallel publishes nothing, so it does not link telemetry" klotski-parallel klotski-telemetry
only_in "6a1e8f4: numbers publish once, from the layer that owns the request (planner per search, controller per run, service per job; the report binary reads deltas)" 'registry\(\)' 'crates/(core/src/planner|controller|service|bench|telemetry)/' crates/*/src src
absent "3ce5bbf: every setting has a setter — fields that only ran at their defaults, unread counters and the ESC key for boxes past u64 stay deleted" 'pub (ssw_groups_per_plane|auto_ports|port_headroom|space_headroom|esc_cache_cap|jobs_capacity|max_body_bytes|io_timeout|sse_queue_capacity|journal_compact_bytes|rsw_destinations|rsw_sources|toggled_circuits|rebases|footprint_bytes|sync_wait|sse_heartbeat): |Counts\(Vec<u16>' crates src
absent "dc8baba: one toggle source — every route diffs two states by their bit words; the block-list diff and its guard stay deleted" 'MAX_DELTA_BLOCKS|base_v' crates src tests
signature_lacks "dc8baba: one toggle source — route_into takes no compact vector vouching for a canonical state" route_into 'CompactState' crates/core/src/replay.rs
absent "7ebbbea: no footprint prefilter — every destination classifies the toggles against its own labels" 'Arc<BitSet>|toggle_words|intern_footprints|hash_words|delta_touches' crates/routing/src
absent "d61283c: one routing path in the checker — SatChecker routes every miss on its LiveEngine" 'EcmpRouter|UsableMask' crates/core/src/satcheck.rs
lines "d61283c: one routing path in the checker — the spec field is the only incremental setting left" 1 'pub incremental:' crates/core/src/migration.rs
absent "d61283c: one oracle kit — the differential tests share one RNG, walk and jitter in tests/common" 'fn (next_rand|splitmix|pick)\b' crates/core/tests/*.rs
absent "d61283c: one oracle kit — the kit the checker and the engine are held to never names either" 'SatChecker|LiveEngine|IncrementalRouter' crates/core/tests/common/mod.rs
absent "2baf466: library planning stays cold between calls — only the daemon's plan cache keeps verdicts, beside its entries" '(static|OnceLock|thread_local).*Verdicts' crates/service/src/pipeline.rs crates/service/src/cache.rs crates/controller/src
absent "8a266cf: the lookahead reads the run's ESC cache in place; its seeded headroom memo and fill sweeps stay deleted" 'pub headroom:|fn seeded\(|struct Headroom|holds_realized|earlier:' crates/core/src
absent "2baf466: that commit's verdict store and its loans stay deleted — the plan cache is the daemon's one warm store" 'VerdictStore|fn lend\(|give_back' crates/service/src
lines "07df035: an advance patches downhill lists by its edits — rebuild_downhill( is its definition, rebuild_full's call and the newly settled switch's call, so no row rescan returns to the patch path" 3 'rebuild_downhill\(' crates/routing/src/incremental.rs
absent "842f028: forecasting is two private functions of the ensemble — the history type, its config, the forecaster trait and both forecasters stay deleted" 'TrafficHistory|HistoryConfig|trait Forecaster|LinearTrendForecaster|EwmaForecaster' crates src tests examples
only_in "f0f466f: the lanes spawn per call in std::thread::scope; unsafe blocks, impls and fns stay in the signal handler" 'unsafe (\{|impl|fn)' 'crates/service/src/signal.rs' crates/*/src src

unread_pub "public API: every pub item has a reader in another crate (benchmark/src counts) — the rest are these test hooks, each beside a test that reads it" 'BruteForcePlanner@tests/dp_exact.rs MAX_ROW@tests/operations.rs MAX_SWITCH_CIRCUITS@tests/operations.rs TopologyBuilder@crates/core/tests/organization_policy.rs add_circuit@crates/core/tests/organization_policy.rs add_switch@crates/core/tests/organization_policy.rs all_switches@crates/core/tests/organization_policy.rs box_size@crates/core/tests/search_counters.rs cache_len@tests/invariants.rs circuit_up@crates/routing/src/incremental.rs ensemble_breakdown@crates/core/tests/satcheck_prop.rs from_counts@crates/core/tests/port_budgets.rs hgrid_v1_to_v2@tests/optimality.rs last_fail_matrix@crates/core/tests/satcheck_prop.rs last_loads@crates/core/tests/incremental_prop.rs measured@crates/core/tests/plan_seeded.rs npd_to_topology@tests/operations.rs on_class@crates/core/tests/plan_replay.rs peak_utilization@tests/service_http.rs planner_kind@crates/controller/tests/controller_run.rs port_budgets@crates/core/tests/port_budgets.rs push_variant@crates/core/tests/satcheck_prop.rs receded@crates/core/tests/port_budgets.rs set_switch@crates/core/tests/audit_live_oracle.rs state_for@crates/core/tests/plan_seeded.rs step_in_box@crates/core/tests/plan_seeded.rs tight@crates/core/tests/search_counters.rs total_flow@tests/properties.rs used@crates/core/tests/plan_replay.rs with_alpha@tests/optimality.rs with_prior@crates/core/tests/plan_seeded.rs with_threads@crates/core/tests/satcheck_prop.rs'
absent "public API: the §4.1 derivation (symmetry blocks merged by locality key) is the builders' test oracle in crates/core/tests/organization_policy.rs, not a library module" 'mod policy|fn symmetry_blocks' crates/*/src src
absent "public API: validate_plan is the one verdict-only walk; its pool-taking twin stays folded in" 'fn validate_plan_on' crates src tests
absent "public API: lag is counted per reader only; the process-wide total nobody read stays deleted" '\bdropped_total\b' crates src
absent "public API: a surge reaches a matrix only through realized_demand; SurgeEvent::apply stays deleted" 'fn apply\(' crates/traffic/src/surge.rs

absent "buffered framing: the daemon reads a request in chunks into one buffer; the one-byte socket read stays deleted" '\[0u8; 1\]' crates/service/src
lines "byte index: a plan-cache hit by the body's bytes decodes and digests nothing — npd_digest( has its one, miss-side, call in admission" 1 'npd_digest\(' crates/service/src/admission.rs
absent "one board: the job table is the queue and decides backpressure before a job exists — the separate queue, its push error and the shed outcome stay deleted" 'BoundedQueue|PushError|Outcome::Shed|mod queue' crates/service/src
lines "reused connection threads: a thread is spawned for a connection in one place, the acceptor's fallback when no thread is idle" 1 '"klotski-conn"' crates/service/src
lines "reused connection threads: every accept is offered to an idle connection thread before a thread is spawned for it" 1 'if let Err\(stream\) = shared\.connections\.give\(stream\)' crates/service/src/lib.rs
absent "a job keeps its own trace: lines reach it through its worker thread's scoped sink, and /events replays it; the process-global event bus, its stream ids and thread tags stay deleted" 'EventBus|tag_stream|next_stream_id|current_stream\(' crates src tests

absent "SIEVE eviction: the plan cache evicts by its hand over one insertion-ordered queue; FIFO's pop from the front stays deleted" 'pop_front' crates/service/src/cache.rs
lines "SIEVE eviction: the plan cache has one eviction site, so no second policy sits beside the hand" 1 'evictions \+= 1' crates/service/src/cache.rs

exit "$failed"
