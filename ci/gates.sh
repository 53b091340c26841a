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
# named, as a word, in the production text of another file there or under
# benchmark/src. HOOKS lists the exceptions as `name@test-file` entries: pub
# items only that test file reads. An entry is stale, and fails the gate,
# when the name has a production reader or its test file no longer names it.
# A word grep: a same-named item elsewhere counts as a reader.
unread_pub() {
    local why=$1 entry name hits
    hits=$(find crates/*/src src benchmark/src -name '*.rs' | sort | xargs awk '
        FNR == 1 { skip = 0 }
        skip {
            c = $0; depth += gsub(/\{/, "", c) - gsub(/\}/, "", c)
            if (index($0, "{")) opened = 1
            if ((opened && depth <= 0) || (!opened && /;[[:space:]]*$/)) skip = 0
            next
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
        /^[[:space:]]*\/\// { next }
        {
            if (FILENAME !~ /^benchmark/ && match($0, /^[[:space:]]*pub (const |async |unsafe )*(fn|struct|enum|trait|type|const|static|mod) [A-Za-z_][A-Za-z0-9_]*/)) {
                d = substr($0, RSTART, RLENGTH); sub(/.* /, "", d); defs[d, FILENAME] = 1
            }
            s = $0
            while (match(s, /[A-Za-z_][A-Za-z0-9_]*/)) {
                w = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
                if (!((w, FILENAME) in seen)) { seen[w, FILENAME] = 1; readers[w]++ }
            }
        }
        END {
            for (k in defs) { split(k, p, SUBSEP); if (readers[p[1]] < 2) print p[1] " " p[2] }
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

unread_pub "public API: every pub item has a production reader (benchmark/src counts) — the rest are these integration-test hooks, each beside the test that reads it" 'hgrid_v1_to_v2@tests/optimality.rs tight@crates/core/tests/search_counters.rs peak_utilization@tests/service_http.rs cache_len@tests/invariants.rs with_threads@crates/core/tests/satcheck_prop.rs last_loads@crates/core/tests/incremental_prop.rs last_fail_matrix@crates/core/tests/satcheck_prop.rs MAX_SWITCH_CIRCUITS@tests/operations.rs MAX_ROW@tests/operations.rs total_flow@tests/properties.rs circuit_up@crates/routing/src/incremental.rs set_switch@crates/core/tests/audit_live_oracle.rs push_variant@crates/core/tests/satcheck_prop.rs on_class@crates/core/tests/plan_replay.rs'
absent "public API: the §4.1 derivation (symmetry blocks merged by locality key) is the builders' test oracle in crates/core/tests/organization_policy.rs, not a library module" 'mod policy|fn symmetry_blocks' crates/*/src src
absent "public API: validate_plan is the one verdict-only walk; its pool-taking twin stays folded in" 'fn validate_plan_on' crates src tests
absent "public API: the event bus keeps per-subscription lag counts only; the process-wide total nobody read stays deleted" '\bdropped_total\b' crates src
absent "public API: a surge reaches a matrix only through realized_demand; SurgeEvent::apply stays deleted" 'fn apply\(' crates/traffic/src/surge.rs

absent "buffered framing: the daemon reads a request in chunks into one buffer; the one-byte socket read stays deleted" '\[0u8; 1\]' crates/service/src
lines "byte index: a plan-cache hit by the body's bytes decodes and digests nothing — npd_digest( has its one, miss-side, call in admission" 1 'npd_digest\(' crates/service/src/admission.rs
absent "one board: the job table is the queue and decides backpressure before a job exists — the separate queue, its push error and the shed outcome stay deleted" 'BoundedQueue|PushError|Outcome::Shed|mod queue' crates/service/src
lines "reused connection threads: a thread is spawned for a connection in one place, the acceptor's fallback when no thread is idle" 1 '"klotski-conn"' crates/service/src
lines "reused connection threads: every accept is offered to an idle connection thread before a thread is spawned for it" 1 'if let Err\(stream\) = shared\.connections\.give\(stream\)' crates/service/src/lib.rs

exit "$failed"
